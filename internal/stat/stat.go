// Package stat provides the descriptive statistics, covariance estimation
// and error metrics used throughout the library: sample means/variances,
// sample covariance and correlation matrices, Theorem 5.1 covariance
// recovery, the paper's RMSE privacy measure, and the correlation
// dissimilarity metric of Definition 8.1.
package stat

import (
	"fmt"
	"math"

	"randpriv/internal/mat"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 when len < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Covariance returns the unbiased sample covariance of xs and ys.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stat: Covariance length mismatch %d vs %d", len(xs), len(ys)))
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var s float64
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(n-1)
}

// Correlation returns the Pearson correlation of xs and ys, or 0 when
// either series is constant.
func Correlation(xs, ys []float64) float64 {
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	return Covariance(xs, ys) / (sx * sy)
}

// ColumnMeans returns the per-column means of the n×m data matrix.
func ColumnMeans(data *mat.Dense) []float64 {
	_, m := data.Dims()
	return ColumnMeansInto(make([]float64, m), data)
}

// ColumnMeansInto computes the per-column means into dst (len m) and
// returns it — the allocation-free form for workspace-threaded callers.
func ColumnMeansInto(dst []float64, data *mat.Dense) []float64 {
	n, m := data.Dims()
	if len(dst) != m {
		panic(fmt.Sprintf("stat: ColumnMeansInto destination length %d, want %d", len(dst), m))
	}
	for j := range dst {
		dst[j] = 0
	}
	if n == 0 {
		return dst
	}
	for i := 0; i < n; i++ {
		row := data.RawRow(i)
		for j, v := range row {
			dst[j] += v
		}
	}
	for j := range dst {
		dst[j] /= float64(n)
	}
	return dst
}

// ColumnVariances returns the per-column unbiased sample variances.
func ColumnVariances(data *mat.Dense) []float64 {
	n, m := data.Dims()
	out := make([]float64, m)
	if n < 2 {
		return out
	}
	means := ColumnMeans(data)
	for i := 0; i < n; i++ {
		row := data.RawRow(i)
		for j, v := range row {
			d := v - means[j]
			out[j] += d * d
		}
	}
	for j := range out {
		out[j] /= float64(n - 1)
	}
	return out
}

// CenterColumnsInPlace shifts every column of data to zero mean, writing
// the removed means into the caller-provided means slice (len must be
// Cols()). PCA (§5.1.1) requires 0-mean data; the attacks add the means
// back after reconstruction (AddToColumnsInPlace).
func CenterColumnsInPlace(data *mat.Dense, means []float64) {
	ColumnMeansInto(means, data)
	n := data.Rows()
	for i := 0; i < n; i++ {
		row := data.RawRow(i)
		for j := range row {
			row[j] -= means[j]
		}
	}
}

// AddToColumnsInPlace adds means[j] to column j of data, mutating it.
// It is the allocation-free shift used by the streaming attacks, which
// center and un-center one chunk at a time in reused buffers (negate the
// means to subtract).
func AddToColumnsInPlace(data *mat.Dense, means []float64) {
	n, m := data.Dims()
	if len(means) != m {
		panic(fmt.Sprintf("stat: AddToColumns means length %d, want %d", len(means), m))
	}
	for i := 0; i < n; i++ {
		row := data.RawRow(i)
		for j := range row {
			row[j] += means[j]
		}
	}
}

// CovarianceMatrix returns the m×m unbiased sample covariance matrix of
// the n×m data matrix (rows are records, columns are attributes). The
// Gram accumulation — the hot spot of every spectral attack (Theorem 5.1
// needs Σy at every reconstruction) — runs on mat's blocked symmetric
// rank-k kernel: one triangle only, register-tiled, parallel over output
// tiles with a shape-determined accumulation order, so the result is
// bit-identical at any GOMAXPROCS.
func CovarianceMatrix(data *mat.Dense) *mat.Dense {
	return CovarianceMatrixWS(nil, data)
}

// CovarianceMatrixWS is CovarianceMatrix with the centered copy and the
// result drawn from ws (valid until ws.Reset; nil ws allocates). It is
// the form the attacks' steady-state loops use.
func CovarianceMatrixWS(ws *mat.Workspace, data *mat.Dense) *mat.Dense {
	n, m := data.Dims()
	cov := ws.Get(m, m)
	if n < 2 {
		return cov
	}
	centered := ws.Get(n, m)
	copy(centered.Raw(), data.Raw())
	CenterColumnsInPlace(centered, ws.Floats(m))
	mat.SymRankKInto(cov, centered, 1/float64(n-1))
	return cov
}

// CorrelationMatrix returns the m×m sample correlation matrix. Constant
// columns produce zero off-diagonal entries and a unit diagonal.
func CorrelationMatrix(data *mat.Dense) *mat.Dense {
	cov := CovarianceMatrix(data)
	m := cov.Rows()
	out := mat.Zeros(m, m)
	sd := make([]float64, m)
	for i := 0; i < m; i++ {
		sd[i] = math.Sqrt(cov.At(i, i))
	}
	for i := 0; i < m; i++ {
		out.Set(i, i, 1)
		for j := i + 1; j < m; j++ {
			var r float64
			if sd[i] > 0 && sd[j] > 0 {
				r = cov.At(i, j) / (sd[i] * sd[j])
			}
			out.Set(i, j, r)
			out.Set(j, i, r)
		}
	}
	return out
}

// RecoverCovariance applies Theorem 5.1: given the sample covariance of
// the disguised data Y = X + R with i.i.d. noise of variance sigma2, the
// original covariance is estimated by subtracting sigma2 from the
// diagonal.
func RecoverCovariance(covY *mat.Dense, sigma2 float64) *mat.Dense {
	return mat.AddScaledIdentity(covY, -sigma2)
}

// RecoverCovarianceInPlace is RecoverCovariance mutating covY — the
// zero-allocation form for the workspace-threaded attacks, which own
// their covariance estimate.
func RecoverCovarianceInPlace(covY *mat.Dense, sigma2 float64) {
	m := covY.Rows()
	for i := 0; i < m; i++ {
		covY.Set(i, i, covY.At(i, i)-sigma2)
	}
}

// RecoverCovarianceGeneralInPlace applies Theorem 8.2, Σx = Σy − Σr for
// correlated noise with known covariance Σr, to covY in place (covR is
// read only).
func RecoverCovarianceGeneralInPlace(covY, covR *mat.Dense) {
	cd, rd := covY.Raw(), covR.Raw()
	if len(cd) != len(rd) {
		panic(fmt.Sprintf("stat: RecoverCovarianceGeneral shape mismatch %dx%d vs %dx%d",
			covY.Rows(), covY.Cols(), covR.Rows(), covR.Cols()))
	}
	for i := range cd {
		cd[i] -= rd[i]
	}
}
