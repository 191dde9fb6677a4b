// Package asr implements the Agrawal–Srikant iterative Bayesian procedure
// for reconstructing the marginal distribution f_X of original data from
// disguised samples y_i = x_i + r_i with known noise distribution f_R
// (Agrawal & Srikant, SIGMOD 2000 — reference [2] of Huang et al.).
//
// The paper's UDR attack (§4.2) needs f_X to evaluate the posterior
// expectation E[X | Y=y]; this package provides both the density estimate
// and the grid-based posterior machinery.
//
// The iteration, discretized on a grid of x values, is
//
//	f^{j+1}(x) = (1/n) Σ_i f_R(y_i − x)·f^j(x) / ∫ f_R(y_i − z)·f^j(z) dz
//
// starting from a uniform density and running MaxIter rounds. As in
// Agrawal and Srikant's own algorithm, the sum runs over a partition of
// the samples rather than the samples themselves: y is bucketed into
// J = 2·Bins equal-width intervals over [min y, max y], and each
// non-empty interval enters the sum as its count times the term of its
// mean. A round thus reads a kernel of at most J×Bins entries instead of
// n×Bins, and a reconstruction with posterior means costs
// O(MaxIter·J·Bins + n·Bins), the second term being the posterior pass,
// which stays exact per sample.
//
// The interval sum approximates the per-sample one. On perfbench's data
// (synth.Spectrum{P: 3, Principal: 400, Tail: 4}, 300×10 and 1000×10,
// seeds 42, 123 and 456), the RMSE of the posterior means differs from
// the per-sample iteration's by at most 1e-4 relative overall and 1e-3
// per column (measured worst: 4.4e-5 and 3.1e-4), under Normal noise of
// σ = 5 and Laplace noise of the same variance; asr_test.go keeps the
// per-sample iteration as that oracle.
package asr

import (
	"errors"
	"fmt"
	"math"

	"randpriv/internal/dist"
)

// Options configures the reconstruction.
type Options struct {
	// Bins is the number of grid cells for the density estimate; the
	// samples are bucketed into 2·Bins intervals. Defaults to 100.
	Bins int
	// MaxIter is the number of Bayesian update rounds. Defaults to 100.
	MaxIter int
	// Pad widens the grid beyond the sample range by Pad times the noise
	// standard deviation on each side, so that the support of X (which is
	// narrower than that of Y) is covered. Defaults to 1.
	Pad float64
}

func (o Options) withDefaults() Options {
	if o.Bins <= 0 {
		o.Bins = 100
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Pad <= 0 {
		o.Pad = 1
	}
	return o
}

// Density is a reconstructed marginal density on an equal-width grid.
type Density struct {
	// Grid holds the cell-center x coordinates, ascending.
	Grid []float64
	// F holds the density estimate at each grid point; it integrates to 1
	// with respect to the grid width.
	F []float64
	// Width is the grid cell width.
	Width float64
}

// ErrNoSamples is returned when the disguised sample set is empty.
var ErrNoSamples = errors.New("asr: no samples")

// Reconstruct estimates the density of X from the disguised samples y and
// the known noise distribution.
func Reconstruct(y []float64, noise dist.Continuous, opts Options) (*Density, error) {
	if len(y) == 0 {
		return nil, ErrNoSamples
	}
	o := opts.withDefaults()
	noiseSD := math.Sqrt(noise.Variance())
	noiseMean := noise.Mean()

	ylo, yhi := minMax(y)
	// X = Y − R, so shift by the noise mean and pad by Pad·sd.
	lo := ylo - (noiseMean + o.Pad*noiseSD)
	hi := yhi + (-noiseMean + o.Pad*noiseSD)
	if hi <= lo {
		hi = lo + 1
	}
	width := (hi - lo) / float64(o.Bins)
	grid := make([]float64, o.Bins)
	for i := range grid {
		grid[i] = lo + (float64(i)+0.5)*width
	}

	means, counts := intervals(y, ylo, yhi, 2*o.Bins)
	// kernel row s holds f_R(ȳ_s − x_k) for every grid point.
	kernel := make([]float64, len(means)*o.Bins)
	for s, m := range means {
		row := kernel[s*o.Bins:][:o.Bins]
		for k, xk := range grid {
			row[k] = noise.PDF(m - xk)
		}
	}

	f := make([]float64, o.Bins)
	for i := range f {
		f[i] = 1 / (width * float64(o.Bins)) // uniform start
	}
	next := make([]float64, o.Bins)
	inv := 1 / float64(len(y))
	for iter := 0; iter < o.MaxIter; iter++ {
		update(next, f, kernel, counts, width)
		for k, v := range next {
			f[k] = v * inv
		}
	}
	normalize(f, width)
	return &Density{Grid: grid, F: f, Width: width}, nil
}

// ReconstructPosterior estimates the density of X as Reconstruct does and
// returns, for every sample, the posterior mean E[X | Y=y[i]] under that
// density: exactly d.PosteriorMean(y[i], noise).
func ReconstructPosterior(y []float64, noise dist.Continuous, opts Options) (*Density, []float64, error) {
	d, err := Reconstruct(y, noise, opts)
	if err != nil {
		return nil, nil, err
	}
	out := make([]float64, len(y))
	for i, yi := range y {
		out[i] = d.PosteriorMean(yi, noise)
	}
	return d, out, nil
}

func minMax(y []float64) (lo, hi float64) {
	lo, hi = y[0], y[0]
	for _, v := range y {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// intervals buckets y into j equal-width intervals over [lo, hi], y's
// min and max, and returns the mean and count of every non-empty one, in
// interval order. Each mean is kept as a running mean, which stays
// finite where a sum of large values could overflow.
func intervals(y []float64, lo, hi float64, j int) (means, counts []float64) {
	width := (hi - lo) / float64(j)
	means = make([]float64, j)
	counts = make([]float64, j)
	for _, v := range y {
		s := intervalIndex(v, lo, width, j)
		counts[s]++
		means[s] += (v - means[s]) / counts[s]
	}
	used := 0
	for s, c := range counts {
		if c > 0 {
			means[used], counts[used] = means[s], c
			used++
		}
	}
	return means[:used], counts[:used]
}

// intervalIndex returns the interval of v, clamped to [0, j−1]: max y
// falls on the upper edge of the last interval, and the quotient is NaN
// when the width is zero (a constant column) or infinite (a column whose
// range overflows float64), which lands in the first interval.
func intervalIndex(v, lo, width float64, j int) int {
	t := (v - lo) / width
	switch {
	case !(t >= 0):
		return 0
	case t >= float64(j):
		return j - 1
	}
	return int(t)
}

// update sets next[k] = Σ_s c_s·row_s[k]·f[k]/denom_s, where row_s is
// interval s's kernel row, c_s its count and denom_s = width·Σ_k
// row_s[k]·f[k] (∫ f_R(ȳ_s − z) f(z) dz on the grid). An interval whose
// denominator is not positive lies outside the modeled support and adds
// nothing; a NaN denominator is not skipped.
func update(next, f, kernel, counts []float64, width float64) {
	bins := len(f)
	next = next[:bins]
	for k := range next {
		next[k] = 0
	}
	for s, c := range counts {
		row := kernel[s*bins:][:bins]
		var denom float64
		for k, fk := range f {
			denom += row[k] * fk
		}
		denom *= width
		if denom <= 0 {
			continue
		}
		scale := c / denom
		for k, fk := range f {
			next[k] += row[k] * fk * scale
		}
	}
}

// normalize rescales f so it integrates to 1 on the grid.
func normalize(f []float64, width float64) {
	var total float64
	for _, v := range f {
		total += v
	}
	total *= width
	if total <= 0 {
		return
	}
	for i := range f {
		f[i] /= total
	}
}

// At returns the density at x by nearest-cell lookup (0 outside the grid).
func (d *Density) At(x float64) float64 {
	if len(d.Grid) == 0 {
		return 0
	}
	lo := d.Grid[0] - d.Width/2
	i := int((x - lo) / d.Width)
	if i < 0 || i >= len(d.F) {
		return 0
	}
	return d.F[i]
}

// Mean returns the mean of the reconstructed density.
func (d *Density) Mean() float64 {
	var m, total float64
	for k, x := range d.Grid {
		m += x * d.F[k]
		total += d.F[k]
	}
	if total == 0 {
		return 0
	}
	return m / total
}

// Variance returns the variance of the reconstructed density.
func (d *Density) Variance() float64 {
	mean := d.Mean()
	var v, total float64
	for k, x := range d.Grid {
		v += (x - mean) * (x - mean) * d.F[k]
		total += d.F[k]
	}
	if total == 0 {
		return 0
	}
	return v / total
}

// PosteriorMean returns E[X | Y=y] computed on the grid (Eq. 4 of the
// paper):
//
//	E[x|y] = ∫ x·f_X(x)·f_R(y−x) dx / ∫ f_X(x)·f_R(y−x) dx.
//
// When the posterior mass underflows (y far outside the modeled support),
// it falls back to y itself, matching the NDR guess.
func (d *Density) PosteriorMean(y float64, noise dist.Continuous) float64 {
	var num, denom float64
	for k, x := range d.Grid {
		w := d.F[k] * noise.PDF(y-x)
		num += x * w
		denom += w
	}
	if denom <= 0 {
		return y
	}
	return num / denom
}

// String summarizes the reconstruction for logs.
func (d *Density) String() string {
	return fmt.Sprintf("asr.Density(bins=%d, width=%.4g)", len(d.Grid), d.Width)
}
