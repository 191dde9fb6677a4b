package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"randpriv/internal/mat"
)

func TestMSERMSEKnown(t *testing.T) {
	x := mat.New(2, 2, []float64{1, 2, 3, 4})
	xhat := mat.New(2, 2, []float64{2, 2, 3, 2})
	// Squared errors: 1, 0, 0, 4 → MSE 5/4, RMSE sqrt(1.25).
	if got := MSE(xhat, x); math.Abs(got-1.25) > 1e-15 {
		t.Errorf("MSE = %v, want 1.25", got)
	}
	if got := RMSE(xhat, x); math.Abs(got-math.Sqrt(1.25)) > 1e-15 {
		t.Errorf("RMSE = %v", got)
	}
}

func TestMSEZeroForIdentical(t *testing.T) {
	x := mat.New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if MSE(x, x) != 0 || RMSE(x, x) != 0 {
		t.Error("error metrics of identical matrices must be 0")
	}
}

func TestMSEShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MSE shape mismatch did not panic")
		}
	}()
	MSE(mat.Zeros(2, 2), mat.Zeros(2, 3))
}

func TestMSEEmpty(t *testing.T) {
	if got := MSE(mat.Zeros(0, 0), mat.Zeros(0, 0)); got != 0 {
		t.Errorf("MSE(empty) = %v, want 0", got)
	}
}

func TestColumnRMSE(t *testing.T) {
	x := mat.New(2, 2, []float64{0, 0, 0, 0})
	xhat := mat.New(2, 2, []float64{3, 1, 3, 1})
	got := ColumnRMSE(xhat, x)
	if math.Abs(got[0]-3) > 1e-15 || math.Abs(got[1]-1) > 1e-15 {
		t.Errorf("ColumnRMSE = %v, want [3 1]", got)
	}
}

// Property: MSE equals the mean of squared column RMSEs.
func TestColumnRMSEConsistentWithMSE(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		m := 1 + rng.Intn(6)
		x := mat.Zeros(n, m)
		xh := mat.Zeros(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				x.Set(i, j, rng.NormFloat64())
				xh.Set(i, j, rng.NormFloat64())
			}
		}
		col := ColumnRMSE(xh, x)
		var meanSq float64
		for _, c := range col {
			meanSq += c * c
		}
		meanSq /= float64(m)
		return math.Abs(meanSq-MSE(xh, x)) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCorrelationDissimilarityZeroForSameData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := mat.Zeros(50, 4)
	for i := 0; i < 50; i++ {
		for j := 0; j < 4; j++ {
			d.Set(i, j, rng.NormFloat64())
		}
	}
	if got := CorrelationDissimilarity(d, d); got != 0 {
		t.Errorf("Dis(X,X) = %v, want 0", got)
	}
}

func TestCorrelationMatrixDissimilarityKnown(t *testing.T) {
	cx := mat.New(2, 2, []float64{1, 0.8, 0.8, 1})
	cr := mat.New(2, 2, []float64{1, 0.2, 0.2, 1})
	// RMS form: sqrt((0.6² + 0.6²) / (4-2)) = 0.6.
	want := 0.6
	if got := CorrelationMatrixDissimilarity(cx, cr); math.Abs(got-want) > 1e-12 {
		t.Errorf("dissimilarity = %v, want %v", got, want)
	}
}

func TestCorrelationMatrixDissimilaritySymmetric(t *testing.T) {
	cx := mat.New(2, 2, []float64{1, 0.5, 0.5, 1})
	cr := mat.New(2, 2, []float64{1, -0.3, -0.3, 1})
	if CorrelationMatrixDissimilarity(cx, cr) != CorrelationMatrixDissimilarity(cr, cx) {
		t.Error("Dis must be symmetric in its arguments")
	}
}

func TestCorrelationMatrixDissimilarityShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	CorrelationMatrixDissimilarity(mat.Identity(2), mat.Identity(3))
}

func TestCorrelationMatrixDissimilarity1x1(t *testing.T) {
	if got := CorrelationMatrixDissimilarity(mat.Identity(1), mat.Identity(1)); got != 0 {
		t.Errorf("1x1 dissimilarity = %v, want 0", got)
	}
}

func TestPrivacyGain(t *testing.T) {
	if got := PrivacyGain(3, 2); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("PrivacyGain = %v, want 0.5", got)
	}
	if got := PrivacyGain(1, 2); math.Abs(got+0.5) > 1e-15 {
		t.Errorf("PrivacyGain = %v, want -0.5", got)
	}
	if got := PrivacyGain(1, 0); got != 0 {
		t.Errorf("PrivacyGain with zero baseline = %v, want 0", got)
	}
}

// NDR sanity from §4.1: guessing x̂=y has MSE equal to the noise variance.
func TestNDRMSEEqualsNoiseVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, m := 5000, 4
	sigma := 1.7
	x := mat.Zeros(n, m)
	y := mat.Zeros(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			v := rng.NormFloat64() * 5
			x.Set(i, j, v)
			y.Set(i, j, v+sigma*rng.NormFloat64())
		}
	}
	got := MSE(y, x)
	want := sigma * sigma
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("NDR MSE = %v, want ≈%v", got, want)
	}
}
