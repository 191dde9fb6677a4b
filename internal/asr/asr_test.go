package asr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"randpriv/internal/dist"
)

func TestReconstructEmptyInput(t *testing.T) {
	_, err := Reconstruct(nil, dist.NewNormal(0, 1), Options{})
	if !errors.Is(err, ErrNoSamples) {
		t.Fatalf("err = %v, want ErrNoSamples", err)
	}
	if _, _, err := ReconstructPosterior(nil, dist.NewNormal(0, 1), Options{}); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("ReconstructPosterior err = %v, want ErrNoSamples", err)
	}
}

func TestReconstructIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	noise := dist.NewNormal(0, 1)
	y := make([]float64, 2000)
	for i := range y {
		y[i] = rng.NormFloat64()*2 + noise.Rand(rng)
	}
	d, err := Reconstruct(y, noise, Options{Bins: 80})
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	var acc float64
	for _, f := range d.F {
		acc += f
	}
	acc *= d.Width
	if math.Abs(acc-1) > 1e-9 {
		t.Errorf("∫f = %v, want 1", acc)
	}
}

// For Gaussian X and Gaussian noise, the reconstructed density must match
// the true X density (mean and variance recovered).
func TestReconstructRecoversGaussianMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	trueX := dist.NewNormal(3, 2)
	noise := dist.NewNormal(0, 1)
	n := 4000
	y := make([]float64, n)
	for i := range y {
		y[i] = trueX.Rand(rng) + noise.Rand(rng)
	}
	d, err := Reconstruct(y, noise, Options{Bins: 120, MaxIter: 200})
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	if got := d.Mean(); math.Abs(got-3) > 0.2 {
		t.Errorf("reconstructed mean = %v, want ≈3", got)
	}
	// Variance must be close to Var(X)=4, NOT Var(Y)=5: the whole point
	// of the procedure is deconvolving the noise.
	if got := d.Variance(); math.Abs(got-4) > 0.6 {
		t.Errorf("reconstructed variance = %v, want ≈4 (Var(Y)=5)", got)
	}
}

// Bimodal X: the reconstruction must recover two modes that the disguised
// data has smeared together.
func TestReconstructRecoversBimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	noise := dist.NewNormal(0, 1)
	n := 6000
	y := make([]float64, n)
	for i := range y {
		x := -4.0
		if rng.Float64() < 0.5 {
			x = 4.0
		}
		y[i] = x + noise.Rand(rng)
	}
	d, err := Reconstruct(y, noise, Options{Bins: 160, MaxIter: 300})
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	// Density near each mode must greatly exceed density at the midpoint.
	mid := d.At(0)
	left, right := d.At(-4), d.At(4)
	if left < 4*mid || right < 4*mid {
		t.Errorf("modes not separated: f(-4)=%v f(0)=%v f(4)=%v", left, mid, right)
	}
}

func TestPosteriorMeanGaussianMatchesClosedForm(t *testing.T) {
	// With X ~ N(mu, s²) and R ~ N(0, σ²) the posterior mean is the
	// Wiener shrinkage mu + s²/(s²+σ²)·(y−mu). Feed the true Gaussian
	// density through the grid machinery and compare.
	mu, s, sigma := 1.0, 2.0, 1.0
	noise := dist.NewNormal(0, sigma)
	bins := 4000
	lo, hi := mu-10*s, mu+10*s
	width := (hi - lo) / float64(bins)
	grid := make([]float64, bins)
	f := make([]float64, bins)
	trueX := dist.NewNormal(mu, s)
	for i := range grid {
		grid[i] = lo + (float64(i)+0.5)*width
		f[i] = trueX.PDF(grid[i])
	}
	d := &Density{Grid: grid, F: f, Width: width}
	shrink := s * s / (s*s + sigma*sigma)
	for _, y := range []float64{-2, 0, 1, 3, 5} {
		got := d.PosteriorMean(y, noise)
		want := mu + shrink*(y-mu)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("PosteriorMean(%v) = %v, want %v", y, got, want)
		}
	}
}

func TestPosteriorMeanFallsBackToY(t *testing.T) {
	d := &Density{Grid: []float64{0, 1}, F: []float64{0.5, 0.5}, Width: 1}
	noise := dist.NewNormal(0, 0.1)
	// y so far from the grid that the posterior mass underflows to zero.
	y := 1e6
	if got := d.PosteriorMean(y, noise); got != y {
		t.Errorf("PosteriorMean far outside support = %v, want fallback %v", got, y)
	}
}

func TestPosteriorMeansLength(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	noise := dist.NewNormal(0, 1)
	y := make([]float64, 500)
	for i := range y {
		y[i] = rng.NormFloat64() + noise.Rand(rng)
	}
	_, out, err := ReconstructPosterior(y, noise, Options{Bins: 60})
	if err != nil {
		t.Fatalf("ReconstructPosterior: %v", err)
	}
	if len(out) != len(y) {
		t.Fatalf("posterior means length = %d, want %d", len(out), len(y))
	}
}

// UDR must beat NDR: posterior-mean estimates have lower MSE than the raw
// disguised values (this is Theorem 4.1 in action).
func TestPosteriorMeanBeatsNDR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trueX := dist.NewNormal(0, 1.5)
	noise := dist.NewNormal(0, 1.5)
	n := 3000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range y {
		x[i] = trueX.Rand(rng)
		y[i] = x[i] + noise.Rand(rng)
	}
	_, est, err := ReconstructPosterior(y, noise, Options{Bins: 120, MaxIter: 200})
	if err != nil {
		t.Fatalf("ReconstructPosterior: %v", err)
	}
	var mseUDR, mseNDR float64
	for i := range x {
		mseUDR += (est[i] - x[i]) * (est[i] - x[i])
		mseNDR += (y[i] - x[i]) * (y[i] - x[i])
	}
	if mseUDR >= mseNDR {
		t.Errorf("UDR MSE %v not better than NDR MSE %v", mseUDR/float64(n), mseNDR/float64(n))
	}
	// For equal-variance Gaussians the optimal shrinkage halves the MSE.
	ratio := mseUDR / mseNDR
	if ratio > 0.62 {
		t.Errorf("UDR/NDR MSE ratio = %v, want ≈0.5", ratio)
	}
}

func TestAtOutsideGrid(t *testing.T) {
	d := &Density{Grid: []float64{0.5, 1.5}, F: []float64{0.5, 0.5}, Width: 1}
	if d.At(-10) != 0 || d.At(10) != 0 {
		t.Error("At outside the grid must be 0")
	}
	if d.At(0.5) != 0.5 {
		t.Errorf("At(0.5) = %v, want 0.5", d.At(0.5))
	}
}

func TestAtEmptyDensity(t *testing.T) {
	d := &Density{}
	if d.At(0) != 0 {
		t.Error("At on empty density must be 0")
	}
	if d.Mean() != 0 || d.Variance() != 0 {
		t.Error("moments of empty density must be 0")
	}
}

func TestDefaultsApplied(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Bins != 100 || o.MaxIter != 100 || o.Tol != 1e-4 || o.Pad != 1 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestStringNonEmpty(t *testing.T) {
	d := &Density{Grid: []float64{0}, F: []float64{1}, Width: 1}
	if d.String() == "" {
		t.Error("String must be non-empty")
	}
}

func TestReconstructConvergenceFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	noise := dist.NewNormal(0, 1)
	y := make([]float64, 1000)
	for i := range y {
		y[i] = rng.NormFloat64() + noise.Rand(rng)
	}
	d, err := Reconstruct(y, noise, Options{Bins: 50, MaxIter: 500, Tol: 1e-3})
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	if !d.Converged {
		t.Error("expected convergence within 500 iterations at Tol=1e-3")
	}
	if d.Iterations <= 0 || d.Iterations > 500 {
		t.Errorf("Iterations = %d out of range", d.Iterations)
	}
}

// reconstructRef is the Agrawal–Srikant iteration one sample at a time,
// each denominator a single chain over the grid: the reference the
// blocked update in Reconstruct must reproduce bit for bit.
func reconstructRef(y []float64, noise dist.Continuous, opts Options) *Density {
	o := opts.withDefaults()
	noiseSD := math.Sqrt(noise.Variance())
	noiseMean := noise.Mean()
	lo, hi := y[0], y[0]
	for _, v := range y {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	lo -= noiseMean + o.Pad*noiseSD
	hi += -noiseMean + o.Pad*noiseSD
	if hi <= lo {
		hi = lo + 1
	}
	width := (hi - lo) / float64(o.Bins)
	grid := make([]float64, o.Bins)
	for i := range grid {
		grid[i] = lo + (float64(i)+0.5)*width
	}
	n := len(y)
	kernel := make([]float64, n*o.Bins)
	for i, yi := range y {
		row := kernel[i*o.Bins : (i+1)*o.Bins]
		for k, xk := range grid {
			row[k] = noise.PDF(yi - xk)
		}
	}
	f := make([]float64, o.Bins)
	for i := range f {
		f[i] = 1 / (width * float64(o.Bins))
	}
	next := make([]float64, o.Bins)
	d := &Density{Grid: grid, F: f, Width: width}
	for iter := 0; iter < o.MaxIter; iter++ {
		for k := range next {
			next[k] = 0
		}
		for i := 0; i < n; i++ {
			row := kernel[i*o.Bins : (i+1)*o.Bins]
			var denom float64
			for k, fk := range f {
				denom += row[k] * fk
			}
			denom *= width
			if denom <= 0 {
				continue
			}
			for k, fk := range f {
				next[k] += row[k] * fk / denom
			}
		}
		inv := 1 / float64(n)
		var l1 float64
		for k := range next {
			next[k] *= inv
			l1 += math.Abs(next[k]-f[k]) * width
		}
		copy(f, next)
		d.Iterations = iter + 1
		if l1 < o.Tol {
			d.Converged = true
			break
		}
	}
	normalize(f, width)
	return d
}

// posteriorMeansRef is the per-sample PosteriorMean loop, the reference
// for ReconstructPosterior's pass over the kernel rows.
func posteriorMeansRef(d *Density, y []float64, noise dist.Continuous) []float64 {
	out := make([]float64, len(y))
	for i, yi := range y {
		out[i] = d.PosteriorMean(yi, noise)
	}
	return out
}

// rowsNoise is a noise double whose PDF returns val on the kernel rows
// of the chosen samples and inner's density elsewhere; val 0 gives those
// samples a zero denominator, val NaN a NaN one. It tells samples apart
// by call order: the kernel is built row by row, Bins calls per sample,
// and the reference posterior pass repeats that order, so call c belongs
// to sample (c / bins) mod n. The calls count checks that assumption.
type rowsNoise struct {
	inner dist.Continuous
	bins  int
	n     int
	rows  map[int]bool
	val   float64
	calls int
}

func (z *rowsNoise) Mean() float64               { return z.inner.Mean() }
func (z *rowsNoise) Variance() float64           { return z.inner.Variance() }
func (z *rowsNoise) Rand(rng *rand.Rand) float64 { return z.inner.Rand(rng) }
func (z *rowsNoise) PDF(x float64) float64 {
	i := z.calls / z.bins % z.n
	z.calls++
	if z.rows[i] {
		return z.val
	}
	return z.inner.PDF(x)
}

// firstBitsDiff returns the first index where a and b differ in bits,
// or -1 when they are identical.
func firstBitsDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkAgainstRef runs ReconstructPosterior and the one-sample reference
// on y and requires the grid, density, iteration count, convergence flag
// and posterior means to agree bit for bit.
func checkAgainstRef(t *testing.T, y []float64, noise dist.Continuous, opts Options) {
	t.Helper()
	d, means, err := ReconstructPosterior(y, noise, opts)
	if err != nil {
		t.Fatalf("ReconstructPosterior: %v", err)
	}
	if z, ok := noise.(*rowsNoise); ok {
		if want := len(y) * z.bins; z.calls != want {
			t.Fatalf("ReconstructPosterior made %d PDF calls, want %d (one kernel, reused by the posterior pass)", z.calls, want)
		}
		z.calls = 0
	}
	ref := reconstructRef(y, noise, opts)
	refMeans := posteriorMeansRef(ref, y, noise)
	if z, ok := noise.(*rowsNoise); ok {
		if want := 2 * len(y) * z.bins; z.calls != want {
			t.Fatalf("reference made %d PDF calls, want %d (kernel, then one per posterior term)", z.calls, want)
		}
		z.calls = 0
	}
	if i := firstBitsDiff(d.Grid, ref.Grid); i >= 0 {
		t.Fatalf("Grid differs at %d", i)
	}
	if i := firstBitsDiff(d.F, ref.F); i >= 0 {
		t.Fatalf("F[%d] = %v, reference %v", i, d.F[i], ref.F[i])
	}
	if math.Float64bits(d.Width) != math.Float64bits(ref.Width) {
		t.Fatalf("Width = %v, reference %v", d.Width, ref.Width)
	}
	if d.Iterations != ref.Iterations || d.Converged != ref.Converged {
		t.Fatalf("Iterations/Converged = %d/%t, reference %d/%t", d.Iterations, d.Converged, ref.Iterations, ref.Converged)
	}
	if i := firstBitsDiff(means, refMeans); i >= 0 {
		t.Fatalf("posterior mean %d = %v, reference %v", i, means[i], refMeans[i])
	}
	dOnly, err := Reconstruct(y, noise, opts)
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	if i := firstBitsDiff(dOnly.F, ref.F); i >= 0 {
		t.Fatalf("Reconstruct F[%d] = %v, reference %v", i, dOnly.F[i], ref.F[i])
	}
}

var oracleSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 1000}

// TestReconstructMatchesOneSampleReference: the 4-sample blocked update
// and the kernel-row posterior pass are bit-identical to the one-sample
// iteration and the per-sample PosteriorMean loop, for every block/tail
// split of n, three noise shapes, the default options (which run all
// MaxIter rounds) and options that converge early.
func TestReconstructMatchesOneSampleReference(t *testing.T) {
	noises := []struct {
		name  string
		noise dist.Continuous
	}{
		{"normal", dist.NewNormal(0, 1.5)},
		{"laplace", dist.NewLaplace(0.3, 1)},
		{"uniform", dist.NewUniform(-2, 2)},
	}
	optsSet := []Options{{}, {Bins: 37, MaxIter: 400, Tol: 1e-3}}
	for _, nz := range noises {
		for _, n := range oracleSizes {
			for oi, opts := range optsSet {
				nz, n, opts := nz, n, opts
				t.Run(fmt.Sprintf("%s/n=%d/opts=%d", nz.name, n, oi), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(n)*31 + int64(oi)))
					y := make([]float64, n)
					for i := range y {
						x := 2 * rng.NormFloat64()
						if rng.Intn(2) == 0 {
							x += 5
						}
						y[i] = x + nz.noise.Rand(rng)
					}
					checkAgainstRef(t, y, nz.noise, opts)
				})
			}
		}
	}
}

// TestReconstructSkipsNonPositiveDenominators: samples whose kernel row
// is all zero (denominator 0, skipped) or all NaN (denominator NaN, not
// skipped) land inside 4-sample blocks and in the tail; the blocked
// update must fall back to the one-sample rule and match the reference
// bit for bit.
func TestReconstructSkipsNonPositiveDenominators(t *testing.T) {
	const bins = 24
	for _, val := range []float64{0, math.NaN()} {
		for _, n := range oracleSizes {
			val, n := val, n
			t.Run(fmt.Sprintf("val=%v/n=%d", val, n), func(t *testing.T) {
				rows := map[int]bool{n - 1: true}
				for i := 2; i < n; i += 7 {
					rows[i] = true
				}
				z := &rowsNoise{inner: dist.NewNormal(0, 1), bins: bins, n: n, rows: rows, val: val}
				rng := rand.New(rand.NewSource(int64(n)))
				y := make([]float64, n)
				for i := range y {
					y[i] = 3*rng.NormFloat64() + rng.NormFloat64()
				}
				checkAgainstRef(t, y, z, Options{Bins: bins, MaxIter: 40})
			})
		}
	}
}
