package recon

import (
	"fmt"

	"randpriv/internal/asr"
	"randpriv/internal/dist"
	"randpriv/internal/mat"
)

// UDR is the Univariate-Distribution-based Reconstruction of §4.2. Each
// attribute is treated independently: the marginal f_X is recovered from
// the disguised column with the Agrawal–Srikant procedure, then each
// disguised value is replaced by the posterior mean E[X | Y=y], which
// Theorem 4.1 shows minimizes the mean square error among all univariate
// guesses. UDR ignores cross-attribute correlation entirely, which is why
// the paper uses it as the benchmark the correlation-based attacks must
// beat.
//
// The attributes are independent, so Reconstruct runs them concurrently
// under the mat package's process-wide kernel budget (mat.ParallelFor).
// Each attribute's arithmetic is the serial loop's, whichever goroutine
// runs it, so the output is bit-identical at any GOMAXPROCS. A running
// attribute holds a copy of its column, its posterior means and its
// interval kernel: 16·n bytes plus at most 2·Bins×Bins float64s (160 KB
// at the defaults, whatever n is).
type UDR struct {
	// Noise is the known per-entry noise distribution (f_R is public in
	// the randomization model). Its PDF is called from several
	// goroutines at once.
	Noise dist.Continuous
}

// NewUDR returns a UDR attack for i.i.d. N(0, σ²) noise.
func NewUDR(sigma float64) *UDR {
	return &UDR{Noise: dist.NewNormal(0, sigma)}
}

// Reconstruct implements Reconstructor.
func (u *UDR) Reconstruct(y *mat.Dense) (*mat.Dense, error) {
	if err := validateNonEmpty(y); err != nil {
		return nil, err
	}
	if u.Noise == nil {
		return nil, fmt.Errorf("recon: UDR has no noise distribution")
	}
	n, m := y.Dims()
	out := mat.Zeros(n, m)
	errs := make([]error, m)
	mat.ParallelFor(m, func(j int) {
		_, means, err := asr.ReconstructPosterior(y.Col(j), u.Noise, asr.Options{})
		if err != nil {
			errs[j] = err
			return
		}
		out.SetCol(j, means)
	})
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("recon: UDR attribute %d: %w", j, err)
		}
	}
	return out, nil
}

// Name implements Reconstructor.
func (u *UDR) Name() string { return "UDR" }
