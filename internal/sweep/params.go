// Package sweep compiles declarative parameter grids into shared-scan
// plans: one streaming pass over the upload materializes the data and
// each required moment sketch exactly once, then every grid point
// evaluates off the shared state through the operator registry.
//
// Real assessment traffic is sweeps — scheme × σ × seed × attack ×
// utility grids, the paper's Figures 1–4 included — but a per-request
// service re-reads and re-sketches the upload for every point. The
// planner here exploits what the registry already declares (Caps,
// per-attack stream pass counts, SketchShared) with cheap greedy
// grouping rather than a cost model: points that share a perturbation
// identity share the disguised materialization, its sketch and its NDR
// baseline; everything else stays per-point.
//
// The package also owns the single-point assessment engine the server's
// /v1/assess endpoint delegates to, so a sweep grid point and a
// standalone request run literally the same compute path — the reason
// every grid-point report is byte-identical to its standalone
// equivalent at equal (CSV, params, seed).
package sweep

import (
	"errors"
	"fmt"
	"strings"

	"randpriv/internal/core"
)

// Params is the compute-relevant parameter set of one assessment — the
// exact fields that can change a response byte. It mirrors the server's
// /v1/assess query surface; a sweep grid expands into a []Params and
// each entry is interchangeable with a standalone request.
type Params struct {
	Sigma       float64  `json:"sigma"`
	Seed        int64    `json:"seed"`
	Scheme      string   `json:"scheme"`
	Chunk       int      `json:"chunk"`
	Stream      bool     `json:"stream"`
	Attacks     []string `json:"attacks,omitempty"`
	Utility     []string `json:"utility,omitempty"`
	Epsilon     float64  `json:"epsilon"`
	Delta       float64  `json:"delta"`
	Sensitivity float64  `json:"sensitivity"`
	K           int      `json:"k,omitempty"`
}

// CacheKey identifies a fitted assessment: every parameter that can
// change a single response byte plus the dataset digest. It is the
// server's assessment-LRU key, shared so a sweep point populates (and is
// served by) the same cache entries as the equivalent standalone
// request.
func CacheKey(p Params, digest string) string {
	return fmt.Sprintf("assess|v2|%s|sigma=%g|seed=%d|chunk=%d|stream=%t|eps=%g|delta=%g|sens=%g|k=%d|attacks=%s|utility=%s|%s",
		p.Scheme, p.Sigma, p.Seed, p.Chunk, p.Stream,
		p.Epsilon, p.Delta, p.Sensitivity, p.K,
		strings.Join(p.Attacks, ","), strings.Join(p.Utility, ","), digest)
}

// PerturbKey is the identity of a point's disguised materialization:
// the defense, its noise calibration, the seed and the chunk partition
// (the partition feeds the covariance sketches, so it is part of the
// identity even though the perturbation RNG is consumed row-major and
// the noise bytes themselves are chunk-invariant). Grid points with
// equal PerturbKeys share one perturbation pass, one disguised copy, one
// sketch and one NDR baseline.
func PerturbKey(p Params) string {
	return fmt.Sprintf("perturb|%s|sigma=%g|eps=%g|delta=%g|sens=%g|seed=%d|chunk=%d",
		p.Scheme, p.Sigma, p.Epsilon, p.Delta, p.Sensitivity, p.Seed, p.Chunk)
}

// pointKey is the full dedup identity of a grid point (CacheKey minus
// the digest, which is constant within a sweep).
func pointKey(p Params) string { return CacheKey(p, "") }

// AttackModes resolves which battery a point runs: the explicit
// selection, or the registry's default suite for the scheme's noise
// shape.
func AttackModes(p Params, noise core.NoiseModel) []string {
	if len(p.Attacks) > 0 {
		return p.Attacks
	}
	return core.DefaultAttackModes(noise, p.Stream)
}

// PassesFor counts how many full passes an assessment makes over its
// two chunk streams (original + disguised copy) when nothing is shared
// between points or attacks:
//
//	memory:  validate + perturb-read + collect(orig) + collect(disg) = 4
//	stream:  validate + perturb-read + NDR baseline (2)
//	         + each selected attack's registered StreamPasses
//	covariance-hungry scheme: +1 (the sketch pass over the original)
//
// It is the planner's sequential-cost reference — a plan's
// PlannedPasses divided into Σ PassesFor over the grid is the
// pass-amortization win — and every sweep result reports it as
// sequential_passes, so the cost model stays fixed. Progress counts
// PlannedPasses, the passes the engine actually makes.
func PassesFor(reg *core.Registry, p Params) int64 {
	var passes int64
	if p.Stream {
		passes = 2 + 2 // validate + perturb-read, then the NDR baseline
		for _, mode := range AttackModes(p, core.NoiseModel{}) {
			if spec, err := reg.LookupAttack(mode); err == nil {
				passes += spec.StreamPasses
			}
		}
	} else {
		passes = 4
	}
	if spec, err := reg.LookupDefense(p.Scheme); err == nil && spec.Caps.NeedsCov {
		passes++
	}
	return passes
}

// ParamError marks a parameter rejection surfaced by the engine (an
// unknown mode, an invalid calibration): the server maps it to 400 where
// the executor records it per point. Error() is the inner message
// unchanged, so responses keep their exact pre-refactor text.
type ParamError struct{ Err error }

func (e *ParamError) Error() string { return e.Err.Error() }
func (e *ParamError) Unwrap() error { return e.Err }

// isParamError reports whether err is (or wraps) a parameter rejection.
func isParamError(err error) bool {
	var pe *ParamError
	return errors.As(err, &pe)
}

func paramErr(err error) error {
	if err == nil {
		return nil
	}
	return &ParamError{Err: err}
}
