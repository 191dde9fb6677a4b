package experiment

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"randpriv/internal/core"
	"randpriv/internal/mat"
	"randpriv/internal/randomize"
	"randpriv/internal/stat"
	"randpriv/internal/sweep"
	"randpriv/internal/synth"
)

// Point4 extends a sweep point with the measured correlation
// dissimilarity (Definition 8.1) between the original data and the noise,
// which is the x-axis of Figure 4.
type Point4 struct {
	// T is the spectrum-path parameter in [0,2] (1 = independent noise).
	T float64
	// Dissimilarity is Dis(X, R) measured on the realized noise.
	Dissimilarity float64
	// RMSE per attack.
	RMSE map[string]float64
}

// Figure4 is the improved-randomization experiment result.
type Figure4 struct {
	Title  string
	Series []string
	Points []Point4
	// IndependentIndex is the index of the t=1 point (the "vertical
	// line" in the paper's Figure 4), or -1 if t=1 was not swept.
	IndependentIndex int
}

// Experiment4 reproduces Figure 4: m attributes with the first half of
// the spectrum dominant, noise sharing the data's eigenvectors, and the
// noise eigenvalue spectrum swept from data-shaped (t=0, minimal
// dissimilarity, maximal privacy) through flat/i.i.d. (t=1) to
// anti-shaped (t=2, maximal dissimilarity, weakest privacy). SF and
// PCA-DR attack with the i.i.d.-noise assumption (they cannot use Σr);
// BE-DR uses the Eq. 13 estimator with full knowledge of Σr.
func Experiment4(cfg Config, ts []float64) (*Figure4, error) {
	return experiment4At(cfg, 100, 50, ts)
}

// experiment4At is Experiment4 with configurable size for tests. The
// points share one generated substrate. Each point's noise covariance
// is built here and handed to the engine as a prebuilt defense, because
// an arbitrary Σr sits outside the declarative spec; the battery,
// scoring and report still run through the engine's point evaluator.
func experiment4At(cfg Config, m, p int, ts []float64) (*Figure4, error) {
	cfg = cfg.withDefaults()
	if len(ts) == 0 {
		ts = []float64{0, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 1.75, 2}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Data: strongly dominant first half of the spectrum, per the paper
	// ("the first 50 eigenvalues have large numbers").
	spec, err := synth.BudgetedSpectrum(m, p, cfg.Tail, cfg.AvgVariance)
	if err != nil {
		return nil, err
	}
	vals, err := spec.Values()
	if err != nil {
		return nil, err
	}
	ds, err := synth.Generate(cfg.N, vals, nil, rng)
	if err != nil {
		return nil, err
	}

	totalNoise := cfg.Sigma2 * float64(m)
	fig := &Figure4{
		Title:            fmt.Sprintf("RMSE vs correlation dissimilarity (m=%d, %d principal)", m, p),
		Series:           []string{"BE-DR", "PCA-DR", "SF"},
		IndependentIndex: -1,
	}

	// The registry's default Cov-noise battery: SF and PCA-DR attack at
	// the average i.i.d. energy, BE-DR with full Σr, matching the paper's
	// adversary models.
	params := figureParams(cfg, "correlated", nil)
	reg := core.Builtins()
	points := make([]Point4, len(ts))
	err = Runner{}.RunWS(len(ts), cfg.Seed, func(i int, rng *rand.Rand, ws *mat.Workspace) error {
		t := ts[i]
		noiseVals, err := randomize.NoiseSpectrumPath(ds.Eigvals, t, totalNoise)
		if err != nil {
			return err
		}
		noiseCov, err := synth.CovarianceFromSpectrum(noiseVals, ds.Eigvecs)
		if err != nil {
			return err
		}
		scheme, err := randomize.NewCorrelated(nil, noiseCov)
		if err != nil {
			return err
		}
		bd := core.BuiltDefense{
			Scheme: scheme,
			Noise:  core.NoiseModel{Sigma2: scheme.AverageVariance(), Cov: scheme.NoiseCovariance(), Mean: scheme.NoiseMean()},
		}
		pert, err := scheme.Perturb(ds.X, rng)
		if err != nil {
			return err
		}

		dis := stat.CorrelationDissimilarity(ds.X, pert.R)

		env := sweep.Env{Reg: reg, WS: ws}
		rep, _, err := env.EvaluateMemoryPoint(context.TODO(), params, ds.X, pert.Y, bd)
		if err != nil {
			return err
		}
		rmse := make(map[string]float64, len(rep.Results))
		for _, r := range rep.Results {
			if r.Err != nil {
				return fmt.Errorf("experiment: attack %s at t=%v: %w", r.Attack, t, r.Err)
			}
			rmse[r.Attack] = r.RMSE
		}
		points[i] = Point4{T: t, Dissimilarity: dis, RMSE: rmse}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig.Points = points
	for i, t := range ts {
		if t == 1 {
			fig.IndependentIndex = i
			break
		}
	}
	return fig, nil
}

// String renders the figure as a text table.
func (f *Figure4) String() string {
	var b []byte
	b = fmt.Appendf(b, "figure4 — %s\n", f.Title)
	b = fmt.Appendf(b, "%6s %14s", "t", "Dis(X,R)")
	for _, s := range f.Series {
		b = fmt.Appendf(b, " %10s", s)
	}
	b = append(b, '\n')
	for i, p := range f.Points {
		marker := " "
		if i == f.IndependentIndex {
			marker = "*" // independent-noise vertical line
		}
		b = fmt.Appendf(b, "%5.2f%s %14.5f", p.T, marker, p.Dissimilarity)
		for _, s := range f.Series {
			b = fmt.Appendf(b, " %10.4f", p.RMSE[s])
		}
		b = append(b, '\n')
	}
	return string(b)
}

// SeriesValues extracts one attack's RMSE series in sweep order.
func (f *Figure4) SeriesValues(name string) []float64 {
	out := make([]float64, 0, len(f.Points))
	for _, p := range f.Points {
		if v, ok := p.RMSE[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// Monotone reports whether xs is non-increasing (dir < 0) or
// non-decreasing (dir > 0) up to a slack fraction of the series range —
// the shape checks EXPERIMENTS.md records.
func Monotone(xs []float64, dir int, slack float64) bool {
	if len(xs) < 2 {
		return true
	}
	lo, hi := xs[0], xs[0]
	for _, v := range xs {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	tol := slack * (hi - lo)
	for i := 1; i < len(xs); i++ {
		step := xs[i] - xs[i-1]
		if dir > 0 && step < -tol {
			return false
		}
		if dir < 0 && step > tol {
			return false
		}
	}
	return true
}
