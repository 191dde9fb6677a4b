package mat

import (
	"errors"
	"math/rand"
)

// ErrDependentColumns is returned by GramSchmidt when the input columns are
// (numerically) linearly dependent and cannot be orthonormalized.
var ErrDependentColumns = errors.New("mat: columns are linearly dependent")

// GramSchmidt orthonormalizes the columns of a using the modified
// Gram–Schmidt process and returns the resulting matrix with orthonormal
// columns. The paper (§7.1 step 2) uses this to manufacture random
// orthogonal eigenvector matrices.
func GramSchmidt(a *Dense) (*Dense, error) {
	n, m := a.rows, a.cols
	q := a.Clone()
	for j := 0; j < m; j++ {
		col := q.Col(j)
		// Subtract projections onto previously produced columns
		// (modified Gram–Schmidt: re-read the updated column).
		for k := 0; k < j; k++ {
			prev := q.Col(k)
			proj := Dot(prev, col)
			for i := 0; i < n; i++ {
				col[i] -= proj * prev[i]
			}
		}
		nrm := Norm2(col)
		if nrm < 1e-12 {
			return nil, ErrDependentColumns
		}
		for i := range col {
			col[i] /= nrm
		}
		q.SetCol(j, col)
	}
	return q, nil
}

// RandomOrthogonal returns a random n×n orthogonal matrix, built by
// Gram–Schmidt orthonormalization of a standard Gaussian matrix. Gaussian
// entries make linear dependence a probability-zero event; the retry loop
// guards against the astronomically unlikely numerical failure.
func RandomOrthogonal(n int, rng *rand.Rand) *Dense {
	for {
		g := Zeros(n, n)
		for i := range g.data {
			g.data[i] = rng.NormFloat64()
		}
		q, err := GramSchmidt(g)
		if err == nil {
			return q
		}
	}
}

// IsOrthonormalColumns reports whether qᵀq = I to within tol.
func IsOrthonormalColumns(q *Dense, tol float64) bool {
	qtq := SymRankKInto(Zeros(q.cols, q.cols), q, 1)
	return qtq.EqualApprox(Identity(q.cols), tol)
}
