package experiment

import (
	"strings"
	"testing"
)

func TestAblationOracle(t *testing.T) {
	cfg := smallCfg()
	cfg.N = 800
	res, err := AblationOracle(cfg, 12, 3)
	if err != nil {
		t.Fatalf("AblationOracle: %v", err)
	}
	for _, name := range []string{"PCA-DR", "BE-DR"} {
		or, ok := res.Oracle[name]
		if !ok || or <= 0 {
			t.Fatalf("missing oracle result for %s", name)
		}
		es, ok := res.Estimated[name]
		if !ok || es <= 0 {
			t.Fatalf("missing estimated result for %s", name)
		}
		// §5.3: estimated covariance costs only a minor accuracy penalty.
		if es > or*1.25 {
			t.Errorf("%s: estimated %v much worse than oracle %v", name, es, or)
		}
		// The oracle should never be (materially) worse.
		if or > es*1.1 {
			t.Errorf("%s: oracle %v worse than estimated %v", name, or, es)
		}
	}
	if s := res.String(); !strings.Contains(s, "PCA-DR") || !strings.Contains(s, "oracle") {
		t.Errorf("String incomplete:\n%s", s)
	}
}
