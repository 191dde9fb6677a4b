package asr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"randpriv/internal/dist"
	"randpriv/internal/synth"
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
	if o.Bins != 100 || o.MaxIter != 100 || o.Pad != 1 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestStringNonEmpty(t *testing.T) {
	d := &Density{Grid: []float64{0}, F: []float64{1}, Width: 1}
	if d.String() == "" {
		t.Error("String must be non-empty")
	}
}

// reconstructRef is the Agrawal–Srikant iteration one sample at a time,
// over the n×Bins kernel f_R(y_i − x_k): the exact iteration that the
// interval partition approximates, kept as its accuracy oracle.
func reconstructRef(y []float64, noise dist.Continuous, opts Options) *Density {
	return iterateRef(y, y, noise, opts)
}

// iterateRef runs the one-sample iteration over samples on the grid
// that Reconstruct builds for y.
func iterateRef(y, samples []float64, noise dist.Continuous, opts Options) *Density {
	o := opts.withDefaults()
	noiseSD := math.Sqrt(noise.Variance())
	noiseMean := noise.Mean()
	lo, hi := minMax(y)
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
	n := len(samples)
	kernel := make([]float64, n*o.Bins)
	for i, yi := range samples {
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
		for k := range next {
			f[k] = next[k] * inv
		}
	}
	normalize(f, width)
	return &Density{Grid: grid, F: f, Width: width}
}

// posteriorMeansRef is the per-sample PosteriorMean loop.
func posteriorMeansRef(d *Density, y []float64, noise dist.Continuous) []float64 {
	out := make([]float64, len(y))
	for i, yi := range y {
		out[i] = d.PosteriorMean(yi, noise)
	}
	return out
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

// oracleData draws one data set of the accuracy oracle, column by
// column: perfbench's generator (synth.Spectrum{P: 3, Principal: 400,
// Tail: 4}) at n×10 and the given seed, and its disguised copy under
// noise.
func oracleData(t *testing.T, n int, seed int64, noise dist.Continuous) (x, y [][]float64) {
	t.Helper()
	const m = 10
	vals, err := synth.Spectrum{M: m, P: 3, Principal: 400, Tail: 4}.Values()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ds, err := synth.Generate(n, vals, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	x = make([][]float64, m)
	y = make([][]float64, m)
	for j := 0; j < m; j++ {
		x[j] = ds.X.Col(j)
		y[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			y[j][i] = x[j][i] + noise.Rand(rng)
		}
	}
	return x, y
}

// TestReconstructAccuracyAgainstExactIteration is the accuracy oracle
// of the interval partition: on perfbench's data, UDR's RMSE through
// ReconstructPosterior stays within 1e-4 relative of the exact
// per-sample iteration's overall and within 1e-3 per column, under the
// registry's two noise laws at variance 25: Normal σ = 5 (additive and
// dp-gaussian) and Laplace b = 5/√2 (dp-laplace). Uniform noise is not
// a registry law, and the interval means fit its discontinuous density
// worse (up to 1.4e-3 overall and 8.5e-3 per column here), so it gets no
// accuracy bound. It is left to the moment and bimodal tests above,
// which check the shape of a reconstructed density, and to
// TestReconstructMatchesOneSampleReference, which runs the interval
// arithmetic under it.
func TestReconstructAccuracyAgainstExactIteration(t *testing.T) {
	noises := []struct {
		name  string
		noise dist.Continuous
	}{
		{"normal", dist.NewNormal(0, 5)},
		{"laplace", dist.NewLaplace(0, 5/math.Sqrt2)},
	}
	for _, nz := range noises {
		for _, n := range []int{300, 1000} {
			for _, seed := range []int64{42, 123, 456} {
				nz, n, seed := nz, n, seed
				t.Run(fmt.Sprintf("%s/%dx10/seed=%d", nz.name, n, seed), func(t *testing.T) {
					t.Parallel()
					x, y := oracleData(t, n, seed, nz.noise)
					var sse, sseRef float64
					var worstCol float64
					for j := range y {
						_, est, err := ReconstructPosterior(y[j], nz.noise, Options{})
						if err != nil {
							t.Fatal(err)
						}
						ref := posteriorMeansRef(reconstructRef(y[j], nz.noise, Options{}), y[j], nz.noise)
						var col, colRef float64
						for i := range est {
							col += (est[i] - x[j][i]) * (est[i] - x[j][i])
							colRef += (ref[i] - x[j][i]) * (ref[i] - x[j][i])
						}
						sse += col
						sseRef += colRef
						rel := math.Abs(math.Sqrt(col)-math.Sqrt(colRef)) / math.Sqrt(colRef)
						worstCol = math.Max(worstCol, rel)
						if !(rel <= 1e-3) {
							t.Errorf("column %d: RMSE %.9g, exact %.9g (|Δ|/RMSE %.3g > 1e-3)", j,
								math.Sqrt(col/float64(n)), math.Sqrt(colRef/float64(n)), rel)
						}
					}
					rel := math.Abs(math.Sqrt(sse)-math.Sqrt(sseRef)) / math.Sqrt(sseRef)
					if !(rel <= 1e-4) {
						t.Errorf("RMSE %.9g, exact %.9g (|Δ|/RMSE %.3g > 1e-4)",
							math.Sqrt(sse/float64(n*len(y))), math.Sqrt(sseRef/float64(n*len(y))), rel)
					}
					t.Logf("|ΔRMSE|/RMSE %.2g overall, %.2g worst column", rel, worstCol)
				})
			}
		}
	}
}

// intervalRepresentatives returns y's samples replaced by the mean of
// the samples sharing their interval (j equal-width intervals over
// [min y, max y], as intervalIndex assigns them), grouped in interval
// order: the sample set whose one-sample iteration the interval
// iteration computes.
func intervalRepresentatives(y []float64, j int) []float64 {
	lo, hi := minMax(y)
	width := (hi - lo) / float64(j)
	groups := make([][]float64, j)
	for _, v := range y {
		s := intervalIndex(v, lo, width, j)
		groups[s] = append(groups[s], v)
	}
	out := make([]float64, 0, len(y))
	for _, g := range groups {
		var sum float64
		for _, v := range g {
			sum += v
		}
		for range g {
			out = append(out, sum/float64(len(g)))
		}
	}
	return out
}

var oracleSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 1000}

// TestReconstructMatchesOneSampleReference: the interval iteration is
// the one-sample iteration over the interval representatives. With each
// sample replaced by its interval's mean, the one-sample reference on
// the grid Reconstruct builds for y gives Reconstruct's density to
// rounding (1e-12 in L1), for sizes that leave every sample alone in its
// interval (small n) or share intervals (n = 1000), three noise shapes,
// and the default and a non-default grid. The posterior pass is the
// per-sample PosteriorMean loop bit for bit, and Reconstruct returns
// ReconstructPosterior's density bit for bit. How far the
// representatives move the result from the per-sample iteration on y
// itself is the accuracy oracle's concern.
func TestReconstructMatchesOneSampleReference(t *testing.T) {
	noises := []struct {
		name  string
		noise dist.Continuous
	}{
		{"normal", dist.NewNormal(0, 1.5)},
		{"laplace", dist.NewLaplace(0.3, 1)},
		{"uniform", dist.NewUniform(-2, 2)},
	}
	optsSet := []Options{{}, {Bins: 37, MaxIter: 400}}
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
					d, means, err := ReconstructPosterior(y, nz.noise, opts)
					if err != nil {
						t.Fatalf("ReconstructPosterior: %v", err)
					}
					if i := firstBitsDiff(means, posteriorMeansRef(d, y, nz.noise)); i >= 0 {
						t.Fatalf("posterior mean %d = %v, PosteriorMean %v", i, means[i], d.PosteriorMean(y[i], nz.noise))
					}
					dOnly, err := Reconstruct(y, nz.noise, opts)
					if err != nil {
						t.Fatalf("Reconstruct: %v", err)
					}
					if i := firstBitsDiff(dOnly.F, d.F); i >= 0 {
						t.Fatalf("Reconstruct F[%d] = %v, ReconstructPosterior %v", i, dOnly.F[i], d.F[i])
					}
					reps := intervalRepresentatives(y, 2*opts.withDefaults().Bins)
					ref := iterateRef(y, reps, nz.noise, opts)
					if i := firstBitsDiff(d.Grid, ref.Grid); i >= 0 || d.Width != ref.Width {
						t.Fatalf("grid differs from the reference's (index %d, width %v vs %v)", i, d.Width, ref.Width)
					}
					var l1 float64
					for k := range d.F {
						l1 += math.Abs(d.F[k]-ref.F[k]) * d.Width
					}
					if !(l1 <= 1e-12) {
						t.Fatalf("density differs from the one-sample iteration over the interval means by %v in L1", l1)
					}
				})
			}
		}
	}
}

// TestReconstructSkipsNonPositiveDenominators: an interval whose
// denominator is zero adds nothing to the update, so the update equals
// the one without that interval bit for bit; a NaN denominator is not
// skipped and poisons every cell. The flagged intervals sit first,
// inside and last, for every interval count of oracleSizes.
func TestReconstructSkipsNonPositiveDenominators(t *testing.T) {
	const bins = 24
	for _, val := range []float64{0, math.NaN()} {
		for _, n := range oracleSizes {
			val, n := val, n
			t.Run(fmt.Sprintf("val=%v/n=%d", val, n), func(t *testing.T) {
				flagged := map[int]bool{n - 1: true}
				for s := 2; s < n; s += 7 {
					flagged[s] = true
				}
				rng := rand.New(rand.NewSource(int64(n)))
				f := make([]float64, bins)
				for k := range f {
					f[k] = rng.Float64()
				}
				var kernel, counts, keptKernel, keptCounts []float64
				for s := 0; s < n; s++ {
					row := make([]float64, bins)
					for k := range row {
						row[k] = rng.Float64()
					}
					c := float64(1 + rng.Intn(5))
					if flagged[s] {
						for k := range row {
							row[k] = val
						}
					} else {
						keptKernel = append(keptKernel, row...)
						keptCounts = append(keptCounts, c)
					}
					kernel = append(kernel, row...)
					counts = append(counts, c)
				}
				const width = 0.25
				got := make([]float64, bins)
				update(got, f, kernel, counts, width)
				if val == 0 {
					want := make([]float64, bins)
					update(want, f, keptKernel, keptCounts, width)
					if i := firstBitsDiff(got, want); i >= 0 {
						t.Fatalf("next[%d] = %v, without the zero intervals %v", i, got[i], want[i])
					}
					return
				}
				for k, v := range got {
					if !math.IsNaN(v) {
						t.Fatalf("next[%d] = %v, want NaN from the NaN denominator", k, v)
					}
				}
			})
		}
	}
}

// TestReconstructPosteriorAllocationFlatInRows: the iteration's kernel
// is at most 2·Bins×Bins whatever n is, so a ReconstructPosterior call
// allocates n-proportional bytes only for the returned means (8 B a
// row). An n×Bins kernel would add 8·Bins = 800 B a row.
func TestReconstructPosteriorAllocationFlatInRows(t *testing.T) {
	noise := dist.NewNormal(0, 5)
	alloc := func(n int) uint64 {
		rng := rand.New(rand.NewSource(int64(n)))
		y := make([]float64, n)
		for i := range y {
			y[i] = 20*rng.NormFloat64() + noise.Rand(rng)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := ReconstructPosterior(y, noise, Options{}); err != nil {
			t.Fatalf("ReconstructPosterior: %v", err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const small, large = 2000, 20000
	a, b := alloc(small), alloc(large)
	perRow := (float64(b) - float64(a)) / (large - small)
	t.Logf("%d B at n=%d, %d B at n=%d: %.1f B per added row", a, small, b, large, perRow)
	if perRow >= 64 {
		t.Errorf("ReconstructPosterior allocated %d B at n=%d and %d B at n=%d: %.1f B per added row, want < 64", a, small, b, large, perRow)
	}
}

// TestIntervalIndexClamps: the maximum lands in the last interval, and
// a zero width (constant column) or an infinite one (a range that
// overflows float64) puts a NaN quotient in the first interval instead
// of indexing out of range.
func TestIntervalIndexClamps(t *testing.T) {
	for _, tc := range []struct {
		name         string
		v, lo, width float64
		want         int
	}{
		{"min", -3, -3, 0.5, 0},
		{"inside", -0.2, -3, 0.5, 5},
		{"max", 2, -3, 0.5, 9},
		{"constant", 4, 4, 0, 0},
		{"overflow", 1e308, -1e308, math.Inf(1), 0},
		{"overflow-mid", 0, -1e308, math.Inf(1), 0},
	} {
		if got := intervalIndex(tc.v, tc.lo, tc.width, 10); got != tc.want {
			t.Errorf("%s: intervalIndex = %d, want %d", tc.name, got, tc.want)
		}
	}
	means, counts := intervals([]float64{-1e308, 1e308, 0, 5}, -1e308, 1e308, 200)
	var total float64
	for _, c := range counts {
		total += c
	}
	if total != 4 || len(means) != len(counts) {
		t.Errorf("overflowing range: counts %v, means %v; want 4 samples", counts, means)
	}
}
