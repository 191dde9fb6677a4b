// Package mat implements the dense linear algebra needed by the
// randomization/reconstruction library: matrix arithmetic, LU and Cholesky
// factorizations, Gram–Schmidt orthonormalization, and symmetric
// eigendecomposition (Householder + implicit-shift QL, cross-validated
// in the package tests against a cyclic Jacobi oracle).
//
// The package is self-contained (standard library only) and sized for the
// problem scales in Huang, Du & Chen (SIGMOD 2005): matrices up to a few
// hundred columns. Row-major storage is used throughout. Dense products
// (Mul/MulInto, the transpose-free MulABTInto and the symmetric rank-k
// SymRankKInto) share one blocked kernel layer — kcBlock
// reduction slabs and packed 2×4 register tiles, see gemm.go — that fans
// large products out across goroutines with results bit-identical to the
// serial kernel at any GOMAXPROCS. A Workspace arena recycles scratch
// buffers for callers on steady-state hot loops.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix of float64 values.
//
// The zero value is an empty 0×0 matrix. Use New, NewFromRows, Identity,
// or Zeros to construct matrices with a shape.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// New returns an r×c matrix backed by data, which must have length r*c.
// The matrix takes ownership of data (no copy is made).
func New(r, c int, data []float64) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	if data == nil {
		data = make([]float64, r*c)
	}
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Zeros returns an r×c matrix of zeros.
func Zeros(r, c int) *Dense { return New(r, c, nil) }

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := Zeros(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square diagonal matrix whose diagonal is d.
func Diag(d []float64) *Dense {
	n := len(d)
	m := Zeros(n, n)
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// NewFromRows builds a matrix from a slice of equal-length rows.
// It copies the input.
func NewFromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return Zeros(0, 0)
	}
	c := len(rows[0])
	m := Zeros(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d entries, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RawRow returns row i as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Dense) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies v into row i. len(v) must equal Cols().
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d, want %d", len(v), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
}

// SetCol copies v into column j. len(v) must equal Rows().
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("mat: SetCol length %d, want %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// Raw returns the underlying row-major storage. Mutations are visible to
// the matrix. Intended for tight loops in this module's numeric kernels.
func (m *Dense) Raw() []float64 { return m.data }

// AppendRows appends a copy of b's rows to m, growing the backing storage
// with amortized doubling. An empty 0×0 matrix adopts b's column count on
// the first append, so the zero value works as a row accumulator; any
// other shape requires matching column counts.
func (m *Dense) AppendRows(b *Dense) {
	if m.rows == 0 && m.cols == 0 {
		m.cols = b.cols
	}
	if b.cols != m.cols {
		panic(fmt.Sprintf("mat: AppendRows of %d-column rows to %d-column matrix", b.cols, m.cols))
	}
	m.data = append(m.data, b.data...)
	m.rows += b.rows
}

// Equal reports whether m and b have the same shape and identical entries.
func (m *Dense) Equal(b *Dense) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if v != b.data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports whether m and b have the same shape and all entries
// within tol of each other.
func (m *Dense) EqualApprox(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// IsSymmetric reports whether m is square and symmetric to within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Slice returns a copy of the submatrix with rows [r0,r1) and cols [c0,c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("mat: invalid slice [%d:%d, %d:%d] of %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := Zeros(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.data[(i-r0)*out.cols:(i-r0+1)*out.cols], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// ColsSlice returns a copy of the matrix restricted to columns [0, k).
func (m *Dense) ColsSlice(k int) *Dense { return m.Slice(0, m.rows, 0, k) }

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	const maxShow = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Dense(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows && i < maxShow; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.cols && j < maxShow; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
		if m.cols > maxShow {
			b.WriteString(" …")
		}
	}
	if m.rows > maxShow {
		b.WriteString("; …")
	}
	b.WriteByte(']')
	return b.String()
}
