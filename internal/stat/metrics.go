package stat

import (
	"fmt"
	"math"

	"randpriv/internal/mat"
)

// MSE returns the mean square error between the reconstructed matrix xhat
// and the original x, averaged over every entry — the paper's privacy
// measure (§3): larger error means better privacy preservation.
func MSE(xhat, x *mat.Dense) float64 {
	if xhat.Rows() != x.Rows() || xhat.Cols() != x.Cols() {
		panic(fmt.Sprintf("stat: MSE shape mismatch %dx%d vs %dx%d",
			xhat.Rows(), xhat.Cols(), x.Rows(), x.Cols()))
	}
	n, m := x.Dims()
	total := n * m
	if total == 0 {
		return 0
	}
	var ss float64
	a, b := xhat.Raw(), x.Raw()
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return ss / float64(total)
}

// RMSE returns the root mean square error — the y-axis of Figures 1–4.
func RMSE(xhat, x *mat.Dense) float64 { return math.Sqrt(MSE(xhat, x)) }

// ColumnRMSE returns the per-attribute RMSE, exposing which attributes
// leak the most under a reconstruction attack.
func ColumnRMSE(xhat, x *mat.Dense) []float64 {
	if xhat.Rows() != x.Rows() || xhat.Cols() != x.Cols() {
		panic(fmt.Sprintf("stat: ColumnRMSE shape mismatch %dx%d vs %dx%d",
			xhat.Rows(), xhat.Cols(), x.Rows(), x.Cols()))
	}
	n, m := x.Dims()
	out := make([]float64, m)
	if n == 0 {
		return out
	}
	for i := 0; i < n; i++ {
		ra, rb := xhat.RawRow(i), x.RawRow(i)
		for j := range ra {
			d := ra[j] - rb[j]
			out[j] += d * d
		}
	}
	for j := range out {
		out[j] = math.Sqrt(out[j] / float64(n))
	}
	return out
}

// CorrelationDissimilarity implements Definition 8.1: the RMS difference
// of off-diagonal correlation coefficients between two data sets of equal
// width. Diagonal entries are excluded because they are identically 1.
//
// Note: the paper's formula as printed places the 1/(m²−m) factor outside
// the square root, but at m=100 that caps the metric at ≈0.01 while the
// paper's Figure 4 spans 0.04–0.2 — a range only the RMS form (divisor
// inside the root) can produce. We therefore implement the RMS form,
// which reproduces the paper's x-axis exactly.
func CorrelationDissimilarity(x, r *mat.Dense) float64 {
	cx := CorrelationMatrix(x)
	cr := CorrelationMatrix(r)
	return CorrelationMatrixDissimilarity(cx, cr)
}

// CorrelationMatrixDissimilarity is Definition 8.1 applied directly to two
// precomputed m×m correlation matrices.
func CorrelationMatrixDissimilarity(cx, cr *mat.Dense) float64 {
	m := cx.Rows()
	if cx.Cols() != m || cr.Rows() != m || cr.Cols() != m {
		panic(fmt.Sprintf("stat: dissimilarity needs equal square matrices, got %dx%d and %dx%d",
			cx.Rows(), cx.Cols(), cr.Rows(), cr.Cols()))
	}
	if m < 2 {
		return 0
	}
	var ss float64
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			d := cx.At(i, j) - cr.At(i, j)
			ss += d * d
		}
	}
	return math.Sqrt(ss / float64(m*m-m))
}

// PrivacyGain returns how much larger (in relative terms) the
// reconstruction error of an attack is compared to a baseline:
// (rmseAttack − rmseBaseline) / rmseBaseline. Negative values mean the
// attack reconstructs the data better than the baseline, i.e. privacy is
// worse than the baseline suggests.
func PrivacyGain(rmseAttack, rmseBaseline float64) float64 {
	if rmseBaseline == 0 {
		return 0
	}
	return (rmseAttack - rmseBaseline) / rmseBaseline
}
