package experiment

import "testing"

// Error paths across the harness: invalid sweep values and impossible
// configurations must surface as errors, not panics or silent clamps.

func TestExperiment4RejectsBadPath(t *testing.T) {
	cfg := smallCfg()
	if _, err := experiment4At(cfg, 10, 5, []float64{-0.5}); err == nil {
		t.Error("t < 0 must error")
	}
	if _, err := experiment4At(cfg, 10, 5, []float64{2.5}); err == nil {
		t.Error("t > 2 must error")
	}
}

func TestExperiment4NoExplicitIndependentPoint(t *testing.T) {
	cfg := smallCfg()
	fig, err := experiment4At(cfg, 10, 5, []float64{0, 2})
	if err != nil {
		t.Fatalf("experiment4: %v", err)
	}
	if fig.IndependentIndex != -1 {
		t.Errorf("IndependentIndex = %d, want -1 when t=1 not swept", fig.IndependentIndex)
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	c := Config{}.withDefaults()
	if c.N != 1000 || c.Sigma2 != 25 || c.AvgVariance != 300 || c.Tail != 4 || c.Seed != 2005 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestAblationOracleBadDims(t *testing.T) {
	// p > m breaks the spectrum budget.
	if _, err := AblationOracle(smallCfg(), 4, 9); err == nil {
		t.Error("p > m must error")
	}
}

func TestFigureSeriesValuesMissing(t *testing.T) {
	fig := &Figure{Series: []string{"A"}, Points: []Point{{X: 1, RMSE: map[string]float64{"A": 2}}}}
	if got := fig.SeriesValues("nope"); len(got) != 0 {
		t.Errorf("missing series returned %v", got)
	}
	// Rendering with a series absent from a point uses the dash filler.
	fig.Series = append(fig.Series, "B")
	if s := fig.String(); s == "" {
		t.Error("String with missing series must still render")
	}
}

func TestUtilityExperimentBudgetError(t *testing.T) {
	cfg := smallCfg()
	cfg.Tail = 1e9 // tail eats the whole variance budget
	if _, err := UtilityExperiment(cfg, 10, nil); err == nil {
		t.Error("overdrawn budget must error")
	}
}
