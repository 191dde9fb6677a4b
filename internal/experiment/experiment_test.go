package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"randpriv/internal/core"
	"randpriv/internal/mat"
	"randpriv/internal/stream"
	"randpriv/internal/sweep"
	"randpriv/internal/synth"
)

// smallCfg keeps sweeps fast: fewer records and a coarse UDR grid.
func smallCfg() Config {
	return Config{
		N:           400,
		Sigma2:      25,
		AvgVariance: 300,
		Tail:        4,
		Seed:        7,
	}
}

func TestExperiment1Shapes(t *testing.T) {
	cfg := smallCfg()
	// BE-DR's full-covariance estimate needs a healthy record/attribute
	// ratio at m=60; the paper's setup has the same property.
	cfg.N = 1200
	fig, err := Experiment1(cfg, []int{5, 20, 60})
	if err != nil {
		t.Fatalf("Experiment1: %v", err)
	}
	if len(fig.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(fig.Points))
	}
	// Correlation-aware attacks must improve (error drops) as m grows
	// with p fixed — Figure 1's core claim.
	for _, name := range []string{"PCA-DR", "BE-DR", "SF"} {
		vals := fig.SeriesValues(name)
		if len(vals) != 3 {
			t.Fatalf("series %s has %d points", name, len(vals))
		}
		if vals[len(vals)-1] >= vals[0] {
			t.Errorf("%s error should fall with m: %v", name, vals)
		}
	}
	// UDR must stay (roughly) flat thanks to the Eq. 12 budget.
	udr := fig.SeriesValues("UDR")
	if spread(udr) > 0.15*udr[0] {
		t.Errorf("UDR series not flat: %v", udr)
	}
	// BE-DR dominates everywhere (paper's consistent finding); allow a
	// small finite-sample tolerance on the comparison.
	be := fig.SeriesValues("BE-DR")
	for i, v := range fig.SeriesValues("PCA-DR") {
		if be[i] > v*1.03 {
			t.Errorf("point %d: BE-DR %v worse than PCA-DR %v", i, be[i], v)
		}
	}
}

func TestExperiment1RejectsSmallM(t *testing.T) {
	if _, err := Experiment1(smallCfg(), []int{3}); err == nil {
		t.Fatal("m < p must error")
	}
}

func TestExperiment2Shapes(t *testing.T) {
	cfg := smallCfg()
	fig, err := experiment2At(cfg, 40, []int{2, 10, 30})
	if err != nil {
		t.Fatalf("experiment2: %v", err)
	}
	// Errors must rise with p (correlation falls) for the
	// correlation-aware attacks.
	for _, name := range []string{"PCA-DR", "BE-DR"} {
		vals := fig.SeriesValues(name)
		if vals[len(vals)-1] <= vals[0] {
			t.Errorf("%s error should rise with p: %v", name, vals)
		}
	}
	// At high p, BE-DR approaches the UDR level (within 25%).
	be := fig.SeriesValues("BE-DR")
	udr := fig.SeriesValues("UDR")
	last := len(be) - 1
	if be[last] > udr[last]*1.25 {
		t.Errorf("BE-DR %v should approach UDR %v at high p", be[last], udr[last])
	}
}

func TestExperiment2RejectsBadP(t *testing.T) {
	if _, err := experiment2At(smallCfg(), 10, []int{0}); err == nil {
		t.Fatal("p=0 must error")
	}
	if _, err := experiment2At(smallCfg(), 10, []int{11}); err == nil {
		t.Fatal("p>m must error")
	}
}

func TestExperiment3Shapes(t *testing.T) {
	cfg := smallCfg()
	fig, err := experiment3At(cfg, 30, 6, 400, []float64{1, 25, 50})
	if err != nil {
		t.Fatalf("experiment3: %v", err)
	}
	// PCA-based schemes degrade as the tail eigenvalues grow.
	for _, name := range []string{"PCA-DR", "SF"} {
		vals := fig.SeriesValues(name)
		if vals[len(vals)-1] <= vals[0] {
			t.Errorf("%s error should rise with tail eigenvalue: %v", name, vals)
		}
	}
	// Figure 3's crossover: at large tails the PCA-based schemes fall
	// behind UDR, while BE-DR never does (materially).
	udr := fig.SeriesValues("UDR")
	pca := fig.SeriesValues("PCA-DR")
	be := fig.SeriesValues("BE-DR")
	last := len(udr) - 1
	if pca[last] <= udr[last] {
		t.Errorf("at tail=50, PCA-DR %v should exceed UDR %v (crossover)", pca[last], udr[last])
	}
	if be[last] > udr[last]*1.1 {
		t.Errorf("BE-DR %v must not materially exceed UDR %v", be[last], udr[last])
	}
}

func TestExperiment4Shapes(t *testing.T) {
	cfg := smallCfg()
	fig, err := experiment4At(cfg, 20, 10, []float64{0, 0.5, 1, 1.5, 2})
	if err != nil {
		t.Fatalf("experiment4: %v", err)
	}
	if fig.IndependentIndex != 2 {
		t.Errorf("IndependentIndex = %d, want 2", fig.IndependentIndex)
	}
	// Dissimilarity must increase along the path.
	var dis []float64
	for _, p := range fig.Points {
		dis = append(dis, p.Dissimilarity)
	}
	if !Monotone(dis, +1, 0.1) {
		t.Errorf("dissimilarity not increasing: %v", dis)
	}
	// Privacy claim: similar noise (t=0) yields the highest BE-DR error;
	// the anti-shaped end (t=2) yields the lowest.
	be := fig.SeriesValues("BE-DR")
	if be[0] <= be[len(be)-1] {
		t.Errorf("BE-DR error should fall along the path: %v", be)
	}
	pca := fig.SeriesValues("PCA-DR")
	if pca[0] <= pca[len(pca)-1] {
		t.Errorf("PCA-DR error should fall along the path: %v", pca)
	}
	// The correlated defense at t=0 must beat independent noise at t=1.
	if be[0] <= be[2] {
		t.Errorf("correlated noise (%v) must preserve more privacy than iid (%v)", be[0], be[2])
	}
}

func TestFigureRendering(t *testing.T) {
	fig, err := Experiment1(smallCfg(), []int{5, 10})
	if err != nil {
		t.Fatalf("Experiment1: %v", err)
	}
	s := fig.String()
	if !strings.Contains(s, "figure1") || !strings.Contains(s, "BE-DR") {
		t.Errorf("String() incomplete:\n%s", s)
	}
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Errorf("CSV lines = %d, want 3 (header + 2 points)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "m,") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestFigure4Rendering(t *testing.T) {
	cfg := smallCfg()
	fig, err := experiment4At(cfg, 10, 5, []float64{0, 1})
	if err != nil {
		t.Fatalf("experiment4: %v", err)
	}
	s := fig.String()
	if !strings.Contains(s, "figure4") || !strings.Contains(s, "Dis(X,R)") {
		t.Errorf("String() incomplete:\n%s", s)
	}
	// The t=1 row is marked as the independent-noise vertical line.
	if !strings.Contains(s, "*") {
		t.Error("independent-noise marker missing")
	}
}

func TestMonotone(t *testing.T) {
	if !Monotone([]float64{1, 2, 3}, +1, 0) {
		t.Error("increasing series must pass dir=+1")
	}
	if Monotone([]float64{3, 1, 2}, -1, 0) {
		t.Error("non-monotone series must fail at slack=0")
	}
	if !Monotone([]float64{3, 1, 1.05}, -1, 0.05) {
		t.Error("small bounce within slack must pass")
	}
	if !Monotone([]float64{1}, +1, 0) || !Monotone(nil, -1, 0) {
		t.Error("degenerate series must pass")
	}
}

func TestSkipUDR(t *testing.T) {
	cfg := smallCfg()
	cfg.SkipUDR = true
	fig, err := Experiment1(cfg, []int{5, 10})
	if err != nil {
		t.Fatalf("Experiment1: %v", err)
	}
	if len(fig.SeriesValues("UDR")) != 0 {
		t.Error("SkipUDR must drop the UDR series")
	}
	if len(fig.SeriesValues("BE-DR")) != 2 {
		t.Error("other series must remain")
	}
}

// TestSpectrumFigureThroughEngine pins what a spectrum figure reads
// back from the engine's reports: without UDR the series are exactly the
// three spectral attacks, sorted by display name, every cell is a
// positive RMSE, and a rerun reproduces every cell.
func TestSpectrumFigureThroughEngine(t *testing.T) {
	cfg := Config{N: 150, Sigma2: 25, Seed: 9, SkipUDR: true}
	fig, err := Experiment1(cfg, []int{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "figure1" || len(fig.Points) != 2 {
		t.Fatalf("figure = %q with %d points, want figure1 with 2", fig.ID, len(fig.Points))
	}
	if want := []string{"BE-DR", "PCA-DR", "SF"}; !reflect.DeepEqual(fig.Series, want) {
		t.Fatalf("series = %v, want %v", fig.Series, want)
	}
	for _, pt := range fig.Points {
		for _, s := range fig.Series {
			if !(pt.RMSE[s] > 0) {
				t.Errorf("x=%g: %s RMSE = %v, want positive", pt.X, s, pt.RMSE[s])
			}
		}
	}
	again, err := Experiment1(cfg, []int{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Points, fig.Points) {
		t.Errorf("rerun moved the figure:\n%v\nvs\n%v", again.Points, fig.Points)
	}
}

// TestFigure4ThroughEngine: along the spectrum path the dissimilarity
// grows strictly with t, and the Σr-aware BE-DR reconstructs better
// (lower RMSE, weaker privacy) as the noise shape departs from the
// data's.
func TestFigure4ThroughEngine(t *testing.T) {
	cfg := Config{N: 200, Sigma2: 25, Seed: 5}
	fig, err := experiment4At(cfg, 12, 6, []float64{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(fig.Points))
	}
	if fig.IndependentIndex != 1 {
		t.Errorf("independent index = %d, want 1 (t=1)", fig.IndependentIndex)
	}
	if !(fig.Points[0].Dissimilarity < fig.Points[1].Dissimilarity &&
		fig.Points[1].Dissimilarity < fig.Points[2].Dissimilarity) {
		t.Errorf("dissimilarity not increasing in t: %v, %v, %v",
			fig.Points[0].Dissimilarity, fig.Points[1].Dissimilarity, fig.Points[2].Dissimilarity)
	}
	if !(fig.Points[0].RMSE["BE-DR"] > fig.Points[2].RMSE["BE-DR"]) {
		t.Errorf("BE-DR RMSE did not drop from t=0 (%v) to t=2 (%v)",
			fig.Points[0].RMSE["BE-DR"], fig.Points[2].RMSE["BE-DR"])
	}
	for _, pt := range fig.Points {
		for _, s := range fig.Series {
			if !(pt.RMSE[s] > 0) {
				t.Errorf("t=%g: %s RMSE = %v, want positive", pt.T, s, pt.RMSE[s])
			}
		}
	}
}

// TestSigmaSweepThroughEngine checks the paper's noise model on the
// engine a sigmas axis runs: over one data set, every attack's error
// rises with σ, and BE-DR stays below the NDR baseline at every σ.
func TestSigmaSweepThroughEngine(t *testing.T) {
	cfg := smallCfg()
	spec, err := synth.BudgetedSpectrum(12, 3, cfg.Tail, cfg.AvgVariance)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := spec.Values()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.Generate(cfg.N, vals, nil, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	reg := core.Builtins()
	sp, err := sweep.ParseSpec([]byte(`{"defenses":[{"scheme":"additive","sigmas":[2,6,12]}],"attacks":["sf","pcadr","bedr"]}`))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sp.Expand(reg, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sweep.Compile(reg, grid)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	res, err := sweep.Execute(context.Background(), sweep.ExecConfig{Env: sweep.Env{Reg: reg, WS: mat.NewWorkspace()}},
		plan, stream.NewMatrixSource(ds.X, 64), names)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(res.Points))
	}
	series := map[string][]float64{}
	for i, pt := range res.Points {
		if want := []float64{2, 6, 12}[i]; pt.Params.Sigma != want {
			t.Fatalf("point %d has σ=%v, want %v", i, pt.Params.Sigma, want)
		}
		if pt.Error != "" {
			t.Fatalf("σ=%v: %s", pt.Params.Sigma, pt.Error)
		}
		var rep sweep.ReportJSON
		if err := json.Unmarshal(pt.Report, &rep); err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Results {
			series[r.Attack] = append(series[r.Attack], r.RMSE)
			if r.Attack == "BE-DR" && r.RMSE >= rep.NDRBaseline {
				t.Errorf("σ=%v: BE-DR %v did not beat the NDR baseline %v", pt.Params.Sigma, r.RMSE, rep.NDRBaseline)
			}
		}
	}
	if len(series) != 3 {
		t.Fatalf("series = %v, want SF, PCA-DR and BE-DR", series)
	}
	for name, vals := range series {
		if !Monotone(vals, +1, 0.05) {
			t.Errorf("%s error not increasing with σ: %v", name, vals)
		}
	}
}

func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, v := range xs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}
