// Package core is the public facade of the library: it ties the
// randomization schemes (defense) and the reconstruction attacks together
// into a privacy assessment workflow. A typical use:
//
//	ds, _  := synth.Generate(...)            // or load real data
//	report, _ := core.AssessPrivacy(ds.X, scheme, attacks, rng)
//	fmt.Println(report)
//
// The report ranks every attack by its reconstruction RMSE against the
// original data — the paper's privacy measure (§3): lower attack RMSE
// means more private information leaks.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"randpriv/internal/mat"
	"randpriv/internal/randomize"
	"randpriv/internal/recon"
	"randpriv/internal/stat"
)

// AttackResult records one attack's reconstruction quality.
type AttackResult struct {
	// Attack is the reconstructor's name.
	Attack string
	// RMSE is the root mean square reconstruction error (privacy level:
	// higher is better for the data owner).
	RMSE float64
	// ColumnRMSE is the per-attribute breakdown.
	ColumnRMSE []float64
	// GainVsNDR is the attack's relative error reduction against the
	// NDR floor: negative values mean the attack reconstructs the data
	// better than the trivial guess.
	GainVsNDR float64
	// Err records an attack that failed to run (RMSE fields are zero).
	Err error
}

// PrivacyReport aggregates the attack results for one disguised data set.
type PrivacyReport struct {
	// Scheme describes the randomization that produced the disguised data.
	Scheme string
	// NDRBaseline is the RMSE of the trivial x̂=y guess.
	NDRBaseline float64
	// Results holds one entry per attack, sorted by ascending RMSE
	// (most successful attack first).
	Results []AttackResult
}

// RunAttack evaluates a single reconstructor against ground truth.
func RunAttack(original, disguised *mat.Dense, r recon.Reconstructor) (AttackResult, error) {
	xhat, err := r.Reconstruct(disguised)
	if err != nil {
		return AttackResult{Attack: r.Name(), Err: err}, err
	}
	ndr := stat.RMSE(disguised, original)
	rmse := stat.RMSE(xhat, original)
	return AttackResult{
		Attack:     r.Name(),
		RMSE:       rmse,
		ColumnRMSE: stat.ColumnRMSE(xhat, original),
		GainVsNDR:  stat.PrivacyGain(rmse, ndr),
	}, nil
}

// StandardAttacks returns the paper's attack suite for i.i.d. noise of
// variance sigma2: UDR, SF, PCA-DR and BE-DR (NDR is reported as the
// baseline in the report itself).
func StandardAttacks(sigma2 float64) []recon.Reconstructor {
	sigma := math.Sqrt(sigma2)
	if sigma2 <= 0 {
		sigma = 1 // let the attacks surface the validation error themselves
	}
	return []recon.Reconstructor{
		recon.NewUDR(sigma),
		&recon.SF{Sigma2: sigma2},
		&recon.PCADR{Sigma2: sigma2, Select: recon.SelectGap},
		&recon.BEDR{Sigma2: sigma2},
	}
}

// CorrelatedNoiseAttacks returns the attack suite for the improved
// scheme: SF and PCA-DR still assume i.i.d. noise with the average
// per-attribute variance (they have no way to use Σr), while BE-DR uses
// the full Eq. 13 estimator.
func CorrelatedNoiseAttacks(noiseCov *mat.Dense, noiseMean []float64) []recon.Reconstructor {
	avg := mat.Trace(noiseCov) / float64(noiseCov.Rows())
	return []recon.Reconstructor{
		&recon.SF{Sigma2: avg},
		&recon.PCADR{Sigma2: avg, Select: recon.SelectGap},
		&recon.BEDR{NoiseCov: noiseCov, NoiseMean: noiseMean},
	}
}

// NoiseShapeFromCov derives the correlated-noise covariance an adversary
// assumes when only the disguised data is public: its own correlation
// shape, scaled to the stated per-attribute energy sigma2. Near-constant
// disguised data is rejected — the scale σ²·m/trace(Σy) then explodes
// toward Inf and the resulting "covariance" would be garbage.
func NoiseShapeFromCov(covY *mat.Dense, sigma2 float64) (*mat.Dense, error) {
	tr := mat.Trace(covY)
	m := covY.Rows()
	scale := sigma2 * float64(m) / tr
	// maxNoiseScale bounds the amplification of the disguised data's own
	// shape; beyond it the data is (near-)constant and the shape carries
	// no usable correlation signal.
	const maxNoiseScale = 1e12
	if !(tr > 0) || math.IsInf(scale, 0) || math.IsNaN(scale) || scale > maxNoiseScale {
		return nil, fmt.Errorf("core: disguised data is (near-)constant (covariance trace %.3g), cannot shape correlated noise from it", tr)
	}
	return mat.Scale(scale, covY), nil
}

// AssessPrivacy disguises x with the scheme, runs every attack, and
// reports the reconstruction error of each, sorted most-dangerous-first.
func AssessPrivacy(x *mat.Dense, scheme randomize.Scheme, attacks []recon.Reconstructor, rng *rand.Rand) (*PrivacyReport, error) {
	pert, err := scheme.Perturb(x, rng)
	if err != nil {
		return nil, fmt.Errorf("core: perturb: %w", err)
	}
	return Evaluate(x, pert.Y, scheme.Describe(), attacks)
}

// Evaluate runs every attack against a pre-disguised data set.
func Evaluate(original, disguised *mat.Dense, schemeDesc string, attacks []recon.Reconstructor) (*PrivacyReport, error) {
	if original.Rows() != disguised.Rows() || original.Cols() != disguised.Cols() {
		return nil, fmt.Errorf("core: original %dx%d and disguised %dx%d differ in shape",
			original.Rows(), original.Cols(), disguised.Rows(), disguised.Cols())
	}
	report := &PrivacyReport{
		Scheme:      schemeDesc,
		NDRBaseline: stat.RMSE(disguised, original),
	}
	for _, a := range attacks {
		res, err := RunAttack(original, disguised, a)
		if err != nil {
			res = AttackResult{Attack: a.Name(), Err: err}
		}
		report.Results = append(report.Results, res)
	}
	sortResults(report.Results)
	return report, nil
}

// sortResults orders attack results most-dangerous-first (ascending
// RMSE), with failed attacks at the bottom. Equal error norms are broken
// by attack name so the report ordering is stable across runs and
// platforms even when two attacks tie exactly (e.g. PCA-DR and BE-DR
// collapsing to the same projection on degenerate data).
func sortResults(results []AttackResult) {
	sort.SliceStable(results, func(i, j int) bool {
		ri, rj := results[i], results[j]
		if (ri.Err == nil) != (rj.Err == nil) {
			return ri.Err == nil // failures sink to the bottom
		}
		if ri.RMSE != rj.RMSE {
			return ri.RMSE < rj.RMSE
		}
		return ri.Attack < rj.Attack
	})
}

// MostDangerous returns the successful attack with the lowest RMSE, or
// nil when every attack failed.
func (p *PrivacyReport) MostDangerous() *AttackResult {
	for i := range p.Results {
		if p.Results[i].Err == nil {
			return &p.Results[i]
		}
	}
	return nil
}

// String renders the report as an aligned text table.
func (p *PrivacyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Privacy report — scheme: %s\n", p.Scheme)
	fmt.Fprintf(&b, "NDR baseline RMSE: %.4f\n", p.NDRBaseline)
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "attack", "RMSE", "gain vs NDR")
	for _, r := range p.Results {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-10s %12s %12s  (%v)\n", r.Attack, "-", "-", r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-10s %12.4f %11.1f%%\n", r.Attack, r.RMSE, 100*r.GainVsNDR)
	}
	return b.String()
}
