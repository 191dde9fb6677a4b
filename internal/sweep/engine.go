package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"randpriv/internal/core"
	"randpriv/internal/faultfs"
	"randpriv/internal/mat"
	"randpriv/internal/stream"
)

// Env is the assessment engine's wiring: the registry, a scratch
// workspace and where stream mode keeps its spools. Every entry point —
// /v1/assess, jobs, sweeps, cluster tasks, the CLI — evaluates through
// it, so a grid point and a standalone request are the same computation.
type Env struct {
	Reg *core.Registry
	WS  *mat.Workspace
	// FS and SpoolDir are where stream mode writes its float64 spools.
	// The zero values are the OS filesystem and os.TempDir().
	FS       faultfs.FS
	SpoolDir string
}

// TrialSeed derives the RNG seed of one trial from the base seed. It is a
// SplitMix64 finalizer over (base, trial), so neighbouring trials get
// decorrelated streams — unlike base+trial, which would hand adjacent
// trials strongly overlapping math/rand state.
func TrialSeed(base int64, trial int) int64 {
	z := uint64(base) + (uint64(trial)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// PointRNG builds a point's perturbation RNG. The seed flows through
// TrialSeed, so a point is trial 0 of its own seed: decorrelated from
// neighbouring seeds, and bit-identical every time the same (seed,
// params, data) is evaluated — standalone or mid-sweep.
func PointRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(TrialSeed(seed, 0)))
}

// UtilitySeed derives utility probe i's RNG seed. Each probe gets its
// own trial-derived seed, disjoint from the perturbation's trial 0, so
// adding or reordering probes never moves the noise bytes.
func UtilitySeed(seed int64, i int) int64 {
	return TrialSeed(seed, 1000+i)
}

// BuildDefense constructs the point's defense through the registry. A
// covariance-hungry defense pulls the data sketch through dataCov; a
// failure of that pull is an I/O (or cancellation) problem and passes
// through unwrapped, while every other build error is a parameter
// rejection and comes back as a *ParamError.
func (e Env) BuildDefense(p Params, dataCov func() (*mat.Dense, error)) (core.BuiltDefense, error) {
	spec, err := e.Reg.LookupDefense(p.Scheme)
	if err != nil {
		return core.BuiltDefense{}, paramErr(err)
	}
	var passErr error
	bd, err := spec.Build(core.DefenseContext{
		Sigma:       p.Sigma,
		Epsilon:     p.Epsilon,
		Delta:       p.Delta,
		Sensitivity: p.Sensitivity,
		DataCov: func() (*mat.Dense, error) {
			cov, err := dataCov()
			if err != nil {
				passErr = err
				return nil, err
			}
			return cov, nil
		},
	})
	if err != nil {
		if passErr != nil && err == passErr {
			return core.BuiltDefense{}, err
		}
		return core.BuiltDefense{}, paramErr(err)
	}
	return bd, nil
}

// Perturb disguises src into sink with the point's defense and seeded
// RNG. Every disguised chunk is checked before sink sees it: a noise
// scale near MaxFloat64 overflows to ±Inf, which no attack, baseline or
// report can use, so a non-finite disguised value is a parameter
// rejection (*ParamError) — the same one on the standalone path and
// mid-sweep. Other failures (I/O, cancellation) pass through.
func Perturb(bd core.BuiltDefense, seed int64, src stream.Source, sink stream.Sink) error {
	err := bd.Scheme.PerturbStream(src, &finiteSink{sink: sink}, PointRNG(seed))
	var pe *ParamError
	if errors.As(err, &pe) {
		return pe // unwrapped, so every path reports the same message
	}
	return err
}

// finiteSink passes chunks on to sink after checking every value is
// finite.
type finiteSink struct {
	sink stream.Sink
	rows int64
}

func (f *finiteSink) Append(chunk *mat.Dense) error {
	if err := stream.ValidateChunk(chunk, f.rows); err != nil {
		var nf *stream.NonFiniteError
		if errors.As(err, &nf) {
			return paramErr(fmt.Errorf("sweep: the defense overflows float64: disguised value %v at row %d, col %d", nf.Val, nf.Row, nf.Col))
		}
		return err
	}
	f.rows += int64(chunk.Rows())
	return f.sink.Append(chunk)
}

// EvaluateStreamPoint runs one point's out-of-core battery against the
// precomputed NDR baseline *ndr, which must be non-nil: the sweep
// executor computes it once per perturbation group
// (core.StreamNDRBaseline), legal because the baseline depends only on
// the two streams, never on the battery. sketch follows the
// core.SketchFn contract: nil makes every attack run its own pass 1.
func (e Env) EvaluateStreamPoint(p Params, original, disguised stream.Source, bd core.BuiltDefense, ndr *float64, sketch core.SketchFn) (*core.PrivacyReport, error) {
	modes := AttackModes(p, bd.Noise)
	attacks, err := e.Reg.BuildStreamAttacks(modes, core.AttackContext{Noise: bd.Noise, WS: e.WS})
	if err != nil {
		return nil, paramErr(err)
	}
	desc := fmt.Sprintf("%s (streaming, %d-row chunks)", bd.Scheme.Describe(), p.Chunk)
	return core.EvaluateStreamWith(original, disguised, desc, *ndr, attacks, sketch)
}

// EvaluateMemoryPoint runs one point's resident battery plus its utility
// probes on an aligned (original, disguised) pair.
func (e Env) EvaluateMemoryPoint(ctx context.Context, p Params, origData, disgData *mat.Dense, bd core.BuiltDefense) (*core.PrivacyReport, []core.UtilityResult, error) {
	modes := AttackModes(p, bd.Noise)
	attacks, err := e.Reg.BuildAttacks(modes, core.AttackContext{Noise: bd.Noise, WS: e.WS})
	if err != nil {
		return nil, nil, paramErr(err)
	}
	rep, err := core.Evaluate(origData, disgData, bd.Scheme.Describe(), attacks)
	if err != nil {
		return nil, nil, err
	}
	utilities, err := e.Reg.RunUtilities(ctx, p.Utility, origData, disgData, p.K, func(i int) int64 {
		return UtilitySeed(p.Seed, i)
	})
	if err != nil {
		return nil, nil, paramErr(err)
	}
	return rep, utilities, nil
}

// AttackJSON is one attack's entry in an assessment report.
type AttackJSON struct {
	Attack     string    `json:"attack"`
	RMSE       float64   `json:"rmse,omitempty"`
	ColumnRMSE []float64 `json:"column_rmse,omitempty"`
	GainVsNDR  float64   `json:"gain_vs_ndr,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// UtilityJSON is one utility probe's entry in an assessment report.
// Metric keys are marshaled in sorted order by encoding/json, so the
// section is byte-stable for a given seed.
type UtilityJSON struct {
	Probe   string             `json:"probe"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// ReportJSON is the canonical assessment report body — the /v1/assess
// response and the payload behind every sweep grid point. The utility
// section is omitted entirely when no probes were requested, which keeps
// every pre-registry response byte-identical to its golden.
type ReportJSON struct {
	Scheme        string        `json:"scheme"`
	Mode          string        `json:"mode"` // "memory" or "stream"
	Rows          int64         `json:"rows"`
	Cols          int           `json:"cols"`
	Seed          int64         `json:"seed"`
	DatasetSHA256 string        `json:"dataset_sha256"`
	NDRBaseline   float64       `json:"ndr_baseline_rmse"`
	MostDangerous string        `json:"most_dangerous,omitempty"`
	Results       []AttackJSON  `json:"results"`
	Utility       []UtilityJSON `json:"utility,omitempty"`
}

// BuildReport assembles the canonical report structure for one point.
func BuildReport(rep *core.PrivacyReport, utilities []core.UtilityResult, p Params, rows int64, cols int, digest string) ReportJSON {
	mode := "memory"
	if p.Stream {
		mode = "stream"
	}
	out := ReportJSON{
		Scheme:        rep.Scheme,
		Mode:          mode,
		Rows:          rows,
		Cols:          cols,
		Seed:          p.Seed,
		DatasetSHA256: digest,
		NDRBaseline:   rep.NDRBaseline,
	}
	if md := rep.MostDangerous(); md != nil {
		out.MostDangerous = md.Attack
	}
	for _, res := range rep.Results {
		aj := AttackJSON{Attack: res.Attack}
		if res.Err != nil {
			aj.Error = res.Err.Error()
		} else {
			aj.RMSE = res.RMSE
			aj.ColumnRMSE = res.ColumnRMSE
			aj.GainVsNDR = res.GainVsNDR
		}
		out.Results = append(out.Results, aj)
	}
	for _, u := range utilities {
		uj := UtilityJSON{Probe: u.Probe, Metrics: u.Metrics}
		if u.Err != nil {
			uj.Error = u.Err.Error()
		}
		out.Utility = append(out.Utility, uj)
	}
	return out
}

// checkFinite rejects a report holding a NaN or ±Inf, naming the first
// such value in body order. JSON has no spelling for them, and from
// validated finite data only parameters that overflow float64 arithmetic
// produce one, so the rejection is a *ParamError.
func (r ReportJSON) checkFinite() error {
	bad := func(field string, v float64) error {
		return paramErr(fmt.Errorf("sweep: report value %s is %v: the parameters overflow float64", field, v))
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if !finite(r.NDRBaseline) {
		return bad("ndr_baseline_rmse", r.NDRBaseline)
	}
	for _, a := range r.Results {
		if !finite(a.RMSE) {
			return bad(fmt.Sprintf("results[%s].rmse", a.Attack), a.RMSE)
		}
		for j, v := range a.ColumnRMSE {
			if !finite(v) {
				return bad(fmt.Sprintf("results[%s].column_rmse[%d]", a.Attack, j), v)
			}
		}
		if !finite(a.GainVsNDR) {
			return bad(fmt.Sprintf("results[%s].gain_vs_ndr", a.Attack), a.GainVsNDR)
		}
	}
	for _, u := range r.Utility {
		keys := make([]string, 0, len(u.Metrics))
		for k := range u.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if v := u.Metrics[k]; !finite(v) {
				return bad(fmt.Sprintf("utility[%s].metrics.%s", u.Probe, k), v)
			}
		}
	}
	return nil
}

// MarshalReport renders a point's report to its canonical wire form: the
// JSON body plus the trailing newline /v1/assess has always written. The
// sweep executor stores exactly these bytes in the shared result cache,
// so a sweep point and a standalone request populate (and are served by)
// the same entries. A report holding a non-finite number is a
// *ParamError (see checkFinite).
func MarshalReport(rep *core.PrivacyReport, utilities []core.UtilityResult, p Params, rows int64, cols int, digest string) ([]byte, error) {
	out := BuildReport(rep, utilities, p, rows, cols, digest)
	if err := out.checkFinite(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}
