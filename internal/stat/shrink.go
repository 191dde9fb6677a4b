package stat

import (
	"math"

	"randpriv/internal/mat"
)

// LedoitWolf computes the Ledoit–Wolf shrinkage covariance estimator:
// a convex combination (1−α)·S + α·m̄·I of the sample covariance S and
// the scaled identity, with the shrinkage intensity α chosen to minimize
// the expected Frobenius loss (Ledoit & Wolf, 2004).
//
// At the paper's scale (m=100 attributes from n=1000 records) the raw
// sample covariance is noisy enough to visibly hurt the Bayes attack,
// which inverts the whole matrix; shrinkage restores BE-DR's dominance
// over the subspace methods.
//
// It returns the shrunk estimate and the intensity α ∈ [0,1].
func LedoitWolf(data *mat.Dense) (*mat.Dense, float64) {
	n, m := data.Dims()
	if n < 2 || m == 0 {
		return mat.Zeros(m, m), 0
	}
	centered := data.Clone()
	CenterColumnsInPlace(centered, make([]float64, m))
	// S with 1/n normalization (the LW derivation's convention).
	s := mat.Zeros(m, m)
	for i := 0; i < n; i++ {
		row := centered.RawRow(i)
		for a := 0; a < m; a++ {
			va := row[a]
			if va == 0 {
				continue
			}
			sr := s.RawRow(a)
			for b := a; b < m; b++ {
				sr[b] += va * row[b]
			}
		}
	}
	invN := 1 / float64(n)
	for a := 0; a < m; a++ {
		for b := a; b < m; b++ {
			v := s.At(a, b) * invN
			s.Set(a, b, v)
			s.Set(b, a, v)
		}
	}

	// Target scale m̄ = tr(S)/m.
	mbar := mat.Trace(s) / float64(m)

	// d² = ||S − m̄I||²_F / m : dispersion of S around the target.
	var d2 float64
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			v := s.At(a, b)
			if a == b {
				v -= mbar
			}
			d2 += v * v
		}
	}
	d2 /= float64(m)

	// b̄² = (1/n²) Σ_i ||y_i·y_iᵀ − S||²_F / m : sampling noise of S.
	var b2 float64
	for i := 0; i < n; i++ {
		row := centered.RawRow(i)
		var acc float64
		for a := 0; a < m; a++ {
			va := row[a]
			for b := 0; b < m; b++ {
				diff := va*row[b] - s.At(a, b)
				acc += diff * diff
			}
		}
		b2 += acc
	}
	b2 /= float64(n) * float64(n) * float64(m)
	b2 = math.Min(b2, d2)

	var alpha float64
	if d2 > 0 {
		alpha = b2 / d2
	}
	out := mat.Scale(1-alpha, s)
	for i := 0; i < m; i++ {
		out.Set(i, i, out.At(i, i)+alpha*mbar)
	}
	// Rescale to the unbiased (n−1) convention used elsewhere in this
	// module so downstream Theorem 5.1 arithmetic stays consistent.
	return mat.Scale(float64(n)/float64(n-1), out), alpha
}
