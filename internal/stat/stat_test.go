package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"randpriv/internal/mat"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Unbiased sample variance: 32/7.
	if got := Variance(xs); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %v", got)
	}
}

func TestMeanVarianceEdgeCases(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of singleton != 0")
	}
}

func TestCovarianceKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	// cov = 2*var(xs); var(xs) = 5/3.
	if got := Covariance(xs, ys); math.Abs(got-10.0/3) > 1e-12 {
		t.Errorf("Covariance = %v, want 10/3", got)
	}
}

func TestCovarianceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Covariance length mismatch did not panic")
		}
	}()
	Covariance([]float64{1}, []float64{1, 2})
}

func TestCorrelationPerfect(t *testing.T) {
	xs := []float64{1, 2, 3}
	if got := Correlation(xs, []float64{10, 20, 30}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Correlation = %v, want 1", got)
	}
	if got := Correlation(xs, []float64{3, 2, 1}); math.Abs(got+1) > 1e-12 {
		t.Errorf("Correlation = %v, want -1", got)
	}
	if got := Correlation(xs, []float64{7, 7, 7}); got != 0 {
		t.Errorf("Correlation with constant = %v, want 0", got)
	}
}

func TestColumnMeansVariances(t *testing.T) {
	d := mat.NewFromRows([][]float64{{1, 10}, {3, 20}, {5, 30}})
	means := ColumnMeans(d)
	if means[0] != 3 || means[1] != 20 {
		t.Errorf("ColumnMeans = %v, want [3 20]", means)
	}
	vars := ColumnVariances(d)
	if math.Abs(vars[0]-4) > 1e-12 || math.Abs(vars[1]-100) > 1e-12 {
		t.Errorf("ColumnVariances = %v, want [4 100]", vars)
	}
}

func TestColumnMeansEmpty(t *testing.T) {
	means := ColumnMeans(mat.Zeros(0, 3))
	if len(means) != 3 {
		t.Fatalf("ColumnMeans length = %d, want 3", len(means))
	}
	vars := ColumnVariances(mat.Zeros(1, 2))
	if vars[0] != 0 || vars[1] != 0 {
		t.Error("ColumnVariances with n<2 must be zero")
	}
}

func TestCenterColumnsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := mat.Zeros(20, 4)
	for i := 0; i < 20; i++ {
		for j := 0; j < 4; j++ {
			d.Set(i, j, rng.NormFloat64()*3+float64(j))
		}
	}
	centered := d.Clone()
	means := make([]float64, 4)
	CenterColumnsInPlace(centered, means)
	for j, m := range ColumnMeans(centered) {
		if math.Abs(m) > 1e-12 {
			t.Errorf("centered column %d mean = %v, want 0", j, m)
		}
	}
	AddToColumnsInPlace(centered, means)
	if !centered.EqualApprox(d, 1e-12) {
		t.Error("centering then adding the means back did not restore d")
	}
}

func TestAddToColumnsLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddToColumnsInPlace length mismatch did not panic")
		}
	}()
	AddToColumnsInPlace(mat.Zeros(2, 3), []float64{1})
}

func TestCovarianceMatrixKnown(t *testing.T) {
	d := mat.NewFromRows([][]float64{{1, 2}, {3, 6}, {5, 10}})
	cov := CovarianceMatrix(d)
	// Columns: [1 3 5] and [2 6 10]. var1=4, var2=16, cov=8.
	want := mat.New(2, 2, []float64{4, 8, 8, 16})
	if !cov.EqualApprox(want, 1e-12) {
		t.Errorf("CovarianceMatrix = %v, want %v", cov, want)
	}
}

func TestCovarianceMatrixMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, m := 50, 4
	d := mat.Zeros(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			d.Set(i, j, rng.NormFloat64())
		}
	}
	cov := CovarianceMatrix(d)
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			want := Covariance(d.Col(a), d.Col(b))
			if math.Abs(cov.At(a, b)-want) > 1e-10 {
				t.Errorf("cov[%d][%d] = %v, want %v", a, b, cov.At(a, b), want)
			}
		}
	}
}

// Property: sample covariance matrices are symmetric positive semidefinite.
func TestCovarianceMatrixPSDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		m := 1 + rng.Intn(6)
		d := mat.Zeros(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				d.Set(i, j, rng.NormFloat64())
			}
		}
		cov := CovarianceMatrix(d)
		if !cov.IsSymmetric(1e-10) {
			return false
		}
		e, err := mat.EigenSym(cov)
		if err != nil {
			return false
		}
		for _, v := range e.Values {
			if v < -1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCorrelationMatrixProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, m := 100, 5
	d := mat.Zeros(n, m)
	base := make([]float64, n)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			d.Set(i, j, base[i]+0.5*rng.NormFloat64())
		}
	}
	c := CorrelationMatrix(d)
	for i := 0; i < m; i++ {
		if c.At(i, i) != 1 {
			t.Errorf("diag[%d] = %v, want 1", i, c.At(i, i))
		}
		for j := 0; j < m; j++ {
			if v := c.At(i, j); v < -1-1e-12 || v > 1+1e-12 {
				t.Errorf("corr[%d][%d] = %v out of [-1,1]", i, j, v)
			}
			if math.Abs(c.At(i, j)-c.At(j, i)) > 1e-14 {
				t.Error("correlation matrix not symmetric")
			}
		}
	}
}

func TestCorrelationMatrixConstantColumn(t *testing.T) {
	d := mat.NewFromRows([][]float64{{1, 7}, {2, 7}, {3, 7}})
	c := CorrelationMatrix(d)
	if c.At(0, 1) != 0 || c.At(1, 1) != 1 {
		t.Errorf("constant-column handling wrong: %v", c)
	}
}

// Theorem 5.1: Cov(Y) = Cov(X) + σ²·I (within sampling error).
func TestTheorem51(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, m := 20000, 3
	sigma := 2.0
	x := mat.Zeros(n, m)
	base := make([]float64, n)
	for i := range base {
		base[i] = rng.NormFloat64() * 3
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			x.Set(i, j, base[i]+rng.NormFloat64())
		}
	}
	y := x.Clone()
	for i := 0; i < n; i++ {
		row := y.RawRow(i)
		for j := range row {
			row[j] += sigma * rng.NormFloat64()
		}
	}
	covX := CovarianceMatrix(x)
	covY := CovarianceMatrix(y)
	recovered := RecoverCovariance(covY, sigma*sigma)
	if !recovered.EqualApprox(covX, 0.35) {
		t.Errorf("Theorem 5.1 recovery off:\nrecovered %v\noriginal  %v", recovered, covX)
	}
	// Off-diagonals of covY must already match covX (noise independent).
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			if a == b {
				continue
			}
			if math.Abs(covY.At(a, b)-covX.At(a, b)) > 0.35 {
				t.Errorf("off-diagonal (%d,%d) shifted by noise: %v vs %v",
					a, b, covY.At(a, b), covX.At(a, b))
			}
		}
	}
}

func TestRecoverCovarianceGeneral(t *testing.T) {
	covY := mat.New(2, 2, []float64{5, 1, 1, 6})
	covR := mat.New(2, 2, []float64{1, 0.5, 0.5, 2})
	got := covY.Clone()
	RecoverCovarianceGeneralInPlace(got, covR)
	want := mat.New(2, 2, []float64{4, 0.5, 0.5, 4})
	if !got.EqualApprox(want, 1e-14) {
		t.Errorf("RecoverCovarianceGeneralInPlace = %v, want %v", got, want)
	}
}
