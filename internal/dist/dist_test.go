package dist

import (
	"math"
	"math/rand"
	"testing"

	"randpriv/internal/mat"
)

// sampleMoments draws n samples and returns their mean and variance.
func sampleMoments(d Continuous, n int, rng *rand.Rand) (mean, variance float64) {
	var s, ss float64
	for i := 0; i < n; i++ {
		x := d.Rand(rng)
		s += x
		ss += x * x
	}
	mean = s / float64(n)
	variance = ss/float64(n) - mean*mean
	return mean, variance
}

func TestUnivariateMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		d    Continuous
	}{
		{"normal", NewNormal(3, 2)},
		{"laplace", NewLaplace(-1, 4)},
		{"uniform", NewUniform(2, 8)},
	}
	const n = 200000
	for _, tc := range cases {
		mean, variance := sampleMoments(tc.d, n, rng)
		if math.Abs(mean-tc.d.Mean()) > 0.05*math.Sqrt(tc.d.Variance()) {
			t.Errorf("%s: sample mean %v, want %v", tc.name, mean, tc.d.Mean())
		}
		if math.Abs(variance-tc.d.Variance()) > 0.05*tc.d.Variance() {
			t.Errorf("%s: sample variance %v, want %v", tc.name, variance, tc.d.Variance())
		}
	}
}

// TestPDFIntegratesToOne checks each density on a wide trapezoid grid.
func TestPDFIntegratesToOne(t *testing.T) {
	cases := []struct {
		name   string
		d      Continuous
		lo, hi float64
	}{
		{"normal", NewNormal(0, 1.5), -15, 15},
		{"laplace", NewLaplace(2, 1), -25, 25},
		{"uniform", NewUniform(-1, 1), -2, 2},
	}
	const steps = 200000
	for _, tc := range cases {
		h := (tc.hi - tc.lo) / steps
		var sum float64
		for i := 0; i <= steps; i++ {
			w := 1.0
			if i == 0 || i == steps {
				w = 0.5
			}
			sum += w * tc.d.PDF(tc.lo+float64(i)*h)
		}
		if got := sum * h; math.Abs(got-1) > 1e-3 {
			t.Errorf("%s: ∫pdf = %v, want 1", tc.name, got)
		}
	}
}

func TestPDFMatchesKnownValues(t *testing.T) {
	if got, want := NewNormal(0, 1).PDF(0), 1/math.Sqrt(2*math.Pi); math.Abs(got-want) > 1e-12 {
		t.Errorf("standard normal pdf(0) = %v, want %v", got, want)
	}
	if got, want := NewLaplace(0, 2).PDF(0), 0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("laplace(0,2) pdf(0) = %v, want %v", got, want)
	}
	if got := NewUniform(0, 1).PDF(2); got != 0 {
		t.Errorf("uniform pdf outside support = %v, want 0", got)
	}
}

func TestConstructorsRejectBadParams(t *testing.T) {
	for name, fn := range map[string]func(){
		"normal":  func() { NewNormal(0, 0) },
		"laplace": func() { NewLaplace(0, -1) },
		"uniform": func() { NewUniform(1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bad parameters must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMultivariateNormal(t *testing.T) {
	cov := mat.NewFromRows([][]float64{
		{4, 1.2},
		{1.2, 2},
	})
	mu := []float64{1, -3}
	mvn, err := NewMultivariateNormal(mu, cov)
	if err != nil {
		t.Fatalf("NewMultivariateNormal: %v", err)
	}
	if mvn.Dim() != 2 {
		t.Fatalf("Dim = %d, want 2", mvn.Dim())
	}
	if !mvn.Covariance().EqualApprox(cov, 1e-12) {
		t.Error("Covariance() must round-trip")
	}

	rng := rand.New(rand.NewSource(7))
	const n = 100000
	x := mvn.Sample(n, rng)
	var m0, m1, c01 float64
	for i := 0; i < n; i++ {
		row := x.RawRow(i)
		m0 += row[0]
		m1 += row[1]
	}
	m0 /= n
	m1 /= n
	for i := 0; i < n; i++ {
		row := x.RawRow(i)
		c01 += (row[0] - m0) * (row[1] - m1)
	}
	c01 /= n - 1
	if math.Abs(m0-1) > 0.05 || math.Abs(m1+3) > 0.05 {
		t.Errorf("sample mean (%v, %v), want (1, -3)", m0, m1)
	}
	if math.Abs(c01-1.2) > 0.1 {
		t.Errorf("sample cov(0,1) = %v, want 1.2", c01)
	}
}

func TestMultivariateNormalRejectsBadInput(t *testing.T) {
	if _, err := NewMultivariateNormal(nil, mat.Zeros(2, 3)); err == nil {
		t.Error("non-square covariance must error")
	}
	if _, err := NewMultivariateNormal(nil, mat.Zeros(0, 0)); err == nil {
		t.Error("empty covariance must error")
	}
	if _, err := NewMultivariateNormal([]float64{1}, mat.Identity(2)); err == nil {
		t.Error("mean/covariance dimension mismatch must error")
	}
	neg := mat.NewFromRows([][]float64{{1, 0}, {0, -5}})
	if _, err := NewMultivariateNormal(nil, neg); err == nil {
		t.Error("indefinite covariance must error")
	}
}

// TestMultivariateNormalToleratesRoundoff: a covariance assembled as
// Q·Λ·Qᵀ can be an epsilon away from positive definite; the jitter
// retry must absorb that.
func TestMultivariateNormalToleratesRoundoff(t *testing.T) {
	n := 6
	cov := mat.Identity(n)
	cov.Set(n-1, n-1, 1e-13) // nearly singular but non-negative
	if _, err := NewMultivariateNormal(nil, cov); err != nil {
		t.Fatalf("nearly-singular SPD covariance rejected: %v", err)
	}
}

func TestDeterministicStreams(t *testing.T) {
	d := NewNormal(0, 1)
	a := d.Rand(rand.New(rand.NewSource(42)))
	b := d.Rand(rand.New(rand.NewSource(42)))
	if a != b {
		t.Error("same seed must give the same draw")
	}
}

// TestPDFRowMatchesPDF: PDFRow is PDF at every grid point, bit for bit,
// for Normal and Laplace at two locations and three scales. Each grid is
// centred where y − x − μ is 0 and reaches far enough into the tails (60
// scales for Normal, 800 for Laplace) that exp underflows to subnormals
// and to 0; y runs over 0, ±1e3, ±Inf and NaN; an empty grid writes
// nothing.
func TestPDFRowMatchesPDF(t *testing.T) {
	type rowLaw interface {
		Continuous
		PDFRow(row []float64, y float64, xs []float64)
	}
	rng := rand.New(rand.NewSource(11))
	const n = 4001
	for _, mu := range []float64{0, 0.3} {
		for _, scale := range []float64{1e-3, 0.5, 5} {
			for _, l := range []struct {
				name  string
				law   rowLaw
				reach float64
			}{
				{"normal", NewNormal(mu, scale), 60},
				{"laplace", NewLaplace(mu, scale), 800},
			} {
				var subnormal, zero bool
				xs := make([]float64, n)
				row := make([]float64, n)
				for _, y := range []float64{0, 1e3, -1e3, math.Inf(1), math.Inf(-1), math.NaN()} {
					centre := -mu
					if !math.IsInf(y, 0) && !math.IsNaN(y) {
						centre = y - mu
					}
					for k := range xs {
						xs[k] = centre + scale*l.reach*(2*(float64(k)+rng.Float64())/n-1)
					}
					l.law.PDFRow(row, y, xs)
					for k, x := range xs {
						want := l.law.PDF(y - x)
						if math.Float64bits(row[k]) != math.Float64bits(want) {
							t.Fatalf("%s(μ=%v, scale=%v): PDFRow at y=%v, x[%d]=%v is %v, PDF %v",
								l.name, mu, scale, y, k, x, row[k], want)
						}
						subnormal = subnormal || (row[k] > 0 && row[k] < 0x1p-1022)
						zero = zero || row[k] == 0
					}
				}
				if !subnormal || !zero {
					t.Errorf("%s(μ=%v, scale=%v): the grids reached no subnormal (%v) or no zero (%v) density",
						l.name, mu, scale, subnormal, zero)
				}
				l.law.PDFRow(nil, 0, nil)
				row[0] = 42
				if l.law.PDFRow(row, 1, []float64{}); row[0] != 42 {
					t.Errorf("%s: PDFRow on an empty grid wrote row[0] = %v", l.name, row[0])
				}
			}
		}
	}
}
