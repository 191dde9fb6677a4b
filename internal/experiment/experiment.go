// Package experiment regenerates the paper's evaluation: Figures 1–4 of
// Huang, Du & Chen (SIGMOD 2005), plus two extension experiments, §3's
// partial-value disclosure and §8.1's mining utility (README's
// paper-section map). Each ExperimentN function performs the
// corresponding parameter sweep and returns a Figure whose rows can be
// rendered as text or CSV; absolute values depend on the synthetic
// substrate, but the qualitative shapes (orderings, trends, crossovers)
// match the paper.
//
// Every figure point runs through the assessment engine (package sweep),
// the code randprivd serves, with the registry's attack battery. Points
// are independent trials on the Runner's claim loop; point i always
// draws from the RNG stream seeded by sweep.TrialSeed(Config.Seed, i),
// so every figure is bit-identical at any GOMAXPROCS.
package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"

	"randpriv/internal/core"
	"randpriv/internal/mat"
	"randpriv/internal/stream"
	"randpriv/internal/sweep"
	"randpriv/internal/synth"
)

// Config holds the shared experiment parameters. The zero value is
// replaced by paper-scale defaults via withDefaults; tests use smaller
// values for speed.
type Config struct {
	// N is the number of records per generated data set.
	N int
	// Sigma2 is the per-entry noise variance σ² of the i.i.d. scheme.
	Sigma2 float64
	// AvgVariance is the per-attribute data variance budget (Eq. 12
	// control that keeps UDR constant across sweeps).
	AvgVariance float64
	// Tail is the non-principal eigenvalue for Experiments 1 and 2.
	Tail float64
	// Seed makes the sweep deterministic.
	Seed int64
	// SkipUDR drops the UDR series (it dominates runtime at m=100).
	SkipUDR bool
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 1000
	}
	if c.Sigma2 <= 0 {
		c.Sigma2 = 25
	}
	if c.AvgVariance <= 0 {
		// The paper's UDR level (~4.8 flat at σ=5) implies per-attribute
		// data variance near 300 — an order of magnitude above the noise,
		// which is what keeps the disguised spectrum separable.
		c.AvgVariance = 300
	}
	if c.Tail <= 0 {
		c.Tail = 4
	}
	if c.Seed == 0 {
		c.Seed = 2005
	}
	return c
}

// Point is one sweep position: the x-axis value and the RMSE of each
// attack at that position.
type Point struct {
	X    float64
	RMSE map[string]float64
}

// Figure is a reproduced paper figure: a labelled family of RMSE series
// over a swept parameter.
type Figure struct {
	ID     string // e.g. "figure1"
	Title  string
	XLabel string
	Series []string // attack names, presentation order
	Points []Point
}

// Row formats one point as aligned columns following Series order.
func (f *Figure) row(p Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10.4g", p.X)
	for _, s := range f.Series {
		if v, ok := p.RMSE[s]; ok {
			fmt.Fprintf(&b, " %10.4f", v)
		} else {
			fmt.Fprintf(&b, " %10s", "-")
		}
	}
	return b.String()
}

// String renders the figure as a text table, one row per sweep point.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%10s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %10s", s)
	}
	b.WriteByte('\n')
	for _, p := range f.Points {
		b.WriteString(f.row(p))
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteCSV emits the figure as CSV with a header row.
func (f *Figure) WriteCSV(w io.Writer) error {
	cols := append([]string{f.XLabel}, f.Series...)
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, p := range f.Points {
		fields := make([]string, 0, len(cols))
		fields = append(fields, fmt.Sprintf("%g", p.X))
		for _, s := range f.Series {
			if v, ok := p.RMSE[s]; ok {
				fields = append(fields, fmt.Sprintf("%g", v))
			} else {
				fields = append(fields, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(fields, ",")); err != nil {
			return err
		}
	}
	return nil
}

// SeriesValues extracts one attack's RMSE series in sweep order.
func (f *Figure) SeriesValues(name string) []float64 {
	out := make([]float64, 0, len(f.Points))
	for _, p := range f.Points {
		if v, ok := p.RMSE[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// spectrumSweep is the substrate grid of one spectrum figure (1–3): the
// x-axis values and the eigenvalue spectrum each sweep point generates
// its data set from.
type spectrumSweep struct {
	ID     string
	Title  string
	XLabel string
	Xs     []float64
	// Spectra[i] is the eigenvalue spectrum for sweep point i.
	Spectra [][]float64
}

// figure1Substrates builds Figure 1's substrate grid: p = 5 principal
// components fixed, the number of attributes m swept.
func figure1Substrates(cfg Config, ms []int) (*spectrumSweep, error) {
	if len(ms) == 0 {
		ms = []int{5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	}
	const p = 5
	sw := &spectrumSweep{
		ID:     "figure1",
		Title:  "RMSE vs number of attributes (p=5 fixed)",
		XLabel: "m",
	}
	for _, m := range ms {
		if m < p {
			return nil, fmt.Errorf("experiment: m=%d below the fixed p=%d", m, p)
		}
		spec, err := synth.BudgetedSpectrum(m, p, cfg.Tail, cfg.AvgVariance)
		if err != nil {
			return nil, err
		}
		vals, err := spec.Values()
		if err != nil {
			return nil, err
		}
		sw.Xs = append(sw.Xs, float64(m))
		sw.Spectra = append(sw.Spectra, vals)
	}
	return sw, nil
}

// figure2Substrates builds Figure 2's substrate grid: m attributes
// fixed, the number of principal components p swept.
func figure2Substrates(cfg Config, m int, ps []int) (*spectrumSweep, error) {
	if len(ps) == 0 {
		ps = []int{2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	}
	sw := &spectrumSweep{
		ID:     "figure2",
		Title:  fmt.Sprintf("RMSE vs number of principal components (m=%d fixed)", m),
		XLabel: "p",
	}
	for _, p := range ps {
		if p < 1 || p > m {
			return nil, fmt.Errorf("experiment: p=%d outside [1,%d]", p, m)
		}
		spec, err := synth.BudgetedSpectrum(m, p, cfg.Tail, cfg.AvgVariance)
		if err != nil {
			return nil, err
		}
		vals, err := spec.Values()
		if err != nil {
			return nil, err
		}
		sw.Xs = append(sw.Xs, float64(p))
		sw.Spectra = append(sw.Spectra, vals)
	}
	return sw, nil
}

// figure3Substrates builds Figure 3's substrate grid: dimensions fixed,
// the non-principal eigenvalue swept upward.
func figure3Substrates(m, p int, principal float64, tails []float64) (*spectrumSweep, error) {
	if len(tails) == 0 {
		tails = []float64{1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
	}
	sw := &spectrumSweep{
		ID:     "figure3",
		Title:  fmt.Sprintf("RMSE vs non-principal eigenvalue (m=%d, p=%d, λ=%g)", m, p, principal),
		XLabel: "tail λ",
	}
	for _, tail := range tails {
		spec := synth.Spectrum{M: m, P: p, Principal: principal, Tail: tail}
		vals, err := spec.Values()
		if err != nil {
			return nil, err
		}
		sw.Xs = append(sw.Xs, tail)
		sw.Spectra = append(sw.Spectra, vals)
	}
	return sw, nil
}

// figureChunk is the chunk partition figure plans use; the substrate is
// resident either way, so the value only shapes the (unused) pass
// bookkeeping, not the numbers.
const figureChunk = 4096

// figureParams is the engine point every figure evaluates: the paper's
// σ and the config's seed under scheme, with attacks as the explicit
// battery (nil takes the registry's default for the scheme's noise).
func figureParams(cfg Config, scheme string, attacks []string) sweep.Params {
	return sweep.Params{
		Sigma: math.Sqrt(cfg.Sigma2), Seed: cfg.Seed, Scheme: scheme, Chunk: figureChunk, Attacks: attacks,
		Epsilon: sweep.DefaultEpsilon, Delta: sweep.DefaultDelta, Sensitivity: sweep.DefaultSensitivity,
	}
}

// pointRMSE parses one grid-point report back into the figure's
// per-attack RMSE map, keyed by display name.
func pointRMSE(report json.RawMessage) (map[string]float64, error) {
	var rep sweep.ReportJSON
	if err := json.Unmarshal(report, &rep); err != nil {
		return nil, fmt.Errorf("experiment: decode point report: %w", err)
	}
	out := make(map[string]float64, len(rep.Results))
	for _, r := range rep.Results {
		if r.Error != "" {
			return nil, fmt.Errorf("experiment: attack %s: %s", r.Attack, r.Error)
		}
		out[r.Attack] = r.RMSE
	}
	return out, nil
}

// spectrumFigure runs a substrate grid through the assessment engine:
// point i generates its data set from its trial stream, compiles a
// single-point plan of the i.i.d. battery (the registry's memory-mode
// default, minus UDR when it is skipped) and executes it, so each figure
// cell is the computation a server grid point runs. Every point perturbs
// with sweep.PointRNG(cfg.Seed), as a standalone request at that seed
// does.
func spectrumFigure(cfg Config, sw *spectrumSweep) (*Figure, error) {
	battery := []string{"asr", "sf", "pcadr", "bedr"}
	if cfg.SkipUDR {
		battery = battery[1:]
	}
	reg := core.Builtins()
	points := make([]Point, len(sw.Xs))
	err := Runner{}.RunWS(len(sw.Xs), cfg.Seed, func(i int, rng *rand.Rand, ws *mat.Workspace) error {
		ds, err := synth.Generate(cfg.N, sw.Spectra[i], nil, rng)
		if err != nil {
			return err
		}
		plan, err := sweep.Compile(reg, []sweep.Params{figureParams(cfg, "additive", battery)})
		if err != nil {
			return err
		}
		names := make([]string, ds.X.Cols())
		for j := range names {
			names[j] = fmt.Sprintf("x%d", j+1)
		}
		env := sweep.Env{Reg: reg, WS: ws}
		res, err := sweep.Execute(context.TODO(), sweep.ExecConfig{Env: env}, plan, stream.NewMatrixSource(ds.X, figureChunk), names)
		if err != nil {
			return err
		}
		if msg := res.Points[0].Error; msg != "" {
			return fmt.Errorf("experiment: figure point %s=%g: %s", sw.XLabel, sw.Xs[i], msg)
		}
		rmse, err := pointRMSE(res.Points[0].Report)
		if err != nil {
			return err
		}
		points[i] = Point{X: sw.Xs[i], RMSE: rmse}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: sw.ID, Title: sw.Title, XLabel: sw.XLabel, Points: points}
	for name := range points[0].RMSE {
		fig.Series = append(fig.Series, name)
	}
	sort.Strings(fig.Series)
	return fig, nil
}

// Experiment1 reproduces Figure 1: fix p = 5 principal components and
// sweep the number of attributes m; correlation rises with m, so the
// correlation-aware attacks improve while UDR stays flat.
func Experiment1(cfg Config, ms []int) (*Figure, error) {
	cfg = cfg.withDefaults()
	sw, err := figure1Substrates(cfg, ms)
	if err != nil {
		return nil, err
	}
	return spectrumFigure(cfg, sw)
}

// Experiment2 reproduces Figure 2: fix m = 100 attributes and sweep the
// number of principal components p; correlation falls as p rises, so
// every correlation-aware attack degrades toward the UDR level.
func Experiment2(cfg Config, ps []int) (*Figure, error) {
	return experiment2At(cfg, 100, ps)
}

// experiment2At is Experiment2 with a configurable attribute count so
// tests can run at small m.
func experiment2At(cfg Config, m int, ps []int) (*Figure, error) {
	cfg = cfg.withDefaults()
	sw, err := figure2Substrates(cfg, m, ps)
	if err != nil {
		return nil, err
	}
	return spectrumFigure(cfg, sw)
}

// Experiment3 reproduces Figure 3: m = 100 attributes, the first 20
// eigenvalues fixed at 400, and the remaining 80 swept upward; as the
// non-principal mass grows, the PCA-based attacks discard more real
// signal and eventually do worse than UDR, while BE-DR converges to UDR
// from below.
func Experiment3(cfg Config, tails []float64) (*Figure, error) {
	return experiment3At(cfg, 100, 20, 400, tails)
}

// experiment3At is Experiment3 with configurable dimensions for tests.
func experiment3At(cfg Config, m, p int, principal float64, tails []float64) (*Figure, error) {
	cfg = cfg.withDefaults()
	sw, err := figure3Substrates(m, p, principal, tails)
	if err != nil {
		return nil, err
	}
	return spectrumFigure(cfg, sw)
}
