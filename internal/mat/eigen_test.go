package mat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := New(2, 2, []float64{2, 1, 1, 2})
	e, err := EigenSym(a)
	if err != nil {
		t.Fatalf("EigenSym: %v", err)
	}
	if math.Abs(e.Values[0]-3) > 1e-12 || math.Abs(e.Values[1]-1) > 1e-12 {
		t.Errorf("Values = %v, want [3 1]", e.Values)
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := Diag([]float64{5, 1, 9})
	e, err := EigenSym(a)
	if err != nil {
		t.Fatalf("EigenSym: %v", err)
	}
	want := []float64{9, 5, 1}
	for i := range want {
		if math.Abs(e.Values[i]-want[i]) > 1e-12 {
			t.Errorf("Values = %v, want %v", e.Values, want)
		}
	}
}

func TestEigenSymNonSquare(t *testing.T) {
	if _, err := EigenSym(Zeros(2, 3)); err == nil {
		t.Fatal("EigenSym of non-square matrix must error")
	}
}

func TestEigenSymEmpty(t *testing.T) {
	e, err := EigenSym(Zeros(0, 0))
	if err != nil {
		t.Fatalf("EigenSym(0x0): %v", err)
	}
	if len(e.Values) != 0 {
		t.Errorf("Values = %v, want empty", e.Values)
	}
}

// Property: Q·Λ·Qᵀ = A and QᵀQ = I for random symmetric matrices.
func TestEigenSymReconstructProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		g := randomMatrix(n, n, rng)
		a := Mul(Transpose(g), g) // symmetric PSD
		e, err := EigenSym(a)
		if err != nil {
			return false
		}
		if !IsOrthonormalColumns(e.Vectors, 1e-9) {
			return false
		}
		return e.Reconstruct().EqualApprox(a, 1e-8*math.Max(1, MaxAbs(a)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: eigenvalues are sorted descending and their sum equals the trace.
func TestEigenSymTraceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := randomMatrix(n, n, rng)
		a := Add(Mul(Transpose(g), g), Identity(n))
		e, err := EigenSym(a)
		if err != nil {
			return false
		}
		if !sort.IsSorted(sort.Reverse(sort.Float64Slice(e.Values))) {
			return false
		}
		var sum float64
		for _, v := range e.Values {
			sum += v
		}
		tr := Trace(a)
		return math.Abs(sum-tr) < 1e-8*math.Max(1, math.Abs(tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Eigenvector columns must actually satisfy A·q = λ·q.
func TestEigenSymVectorsSatisfyDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomMatrix(8, 8, rng)
	a := Mul(Transpose(g), g)
	e, err := EigenSym(a)
	if err != nil {
		t.Fatalf("EigenSym: %v", err)
	}
	for k := 0; k < 8; k++ {
		q := e.Vectors.Col(k)
		aq := MulVec(a, q)
		for i := range q {
			if math.Abs(aq[i]-e.Values[k]*q[i]) > 1e-7 {
				t.Fatalf("A·q != λq for eigenpair %d (component %d: %v vs %v)",
					k, i, aq[i], e.Values[k]*q[i])
			}
		}
	}
}

func TestEigenLargeMatrix(t *testing.T) {
	// The paper's experiments run at m=100; verify QL convergence there.
	rng := rand.New(rand.NewSource(33))
	n := 100
	q := RandomOrthogonal(n, rng)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(n - i)
	}
	a := Mul(Mul(q, Diag(vals)), Transpose(q))
	e, err := EigenSym(a)
	if err != nil {
		t.Fatalf("EigenSym: %v", err)
	}
	for i, want := range vals {
		if math.Abs(e.Values[i]-want) > 1e-7 {
			t.Fatalf("Values[%d] = %v, want %v", i, e.Values[i], want)
		}
	}
}

// TestReconstructTruncated pins the rank-p reconstruction: an Eigen
// value holding only the top p eigenpairs must reconstruct Σᵢ λᵢqᵢqᵢᵀ,
// not panic on its rectangular Vectors.
func TestReconstructTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const n, p = 8, 3
	q := RandomOrthogonal(n, rng)
	vals := []float64{40, 30, 20, 4, 3, 2, 1, 0.5}
	full := &Eigen{Values: vals, Vectors: q}
	top := &Eigen{Values: vals[:p], Vectors: full.TopVectors(p)}
	got := top.Reconstruct()

	want := Zeros(n, n)
	for k := 0; k < p; k++ {
		col := q.Col(k)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want.Set(i, j, want.At(i, j)+vals[k]*col[i]*col[j])
			}
		}
	}
	if !got.EqualApprox(want, 1e-12) {
		t.Fatal("rank-p Reconstruct differs from explicit eigenpair sum")
	}
	if ws := NewWorkspace(); !top.ReconstructWS(ws).EqualApprox(want, 1e-12) {
		t.Fatal("rank-p ReconstructWS differs from explicit eigenpair sum")
	}
}

func TestTopVectors(t *testing.T) {
	a := Diag([]float64{3, 2, 1})
	e, _ := EigenSym(a)
	top := e.TopVectors(2)
	if top.Rows() != 3 || top.Cols() != 2 {
		t.Fatalf("TopVectors dims %dx%d, want 3x2", top.Rows(), top.Cols())
	}
	if !IsOrthonormalColumns(top, 1e-12) {
		t.Error("TopVectors columns not orthonormal")
	}
}

func TestTopVectorsPanicsOutOfRange(t *testing.T) {
	e, _ := EigenSym(Identity(2))
	defer func() {
		if recover() == nil {
			t.Fatal("TopVectors(5) on 2x2 did not panic")
		}
	}()
	e.TopVectors(5)
}

func TestLargestGapSplit(t *testing.T) {
	tests := []struct {
		vals []float64
		want int
	}{
		{[]float64{400, 400, 400, 5, 4, 3}, 3},
		{[]float64{100, 10, 9, 8}, 1},
		{[]float64{10, 9, 1}, 2},
		{[]float64{5}, 1},
		{nil, 0},
	}
	for _, tc := range tests {
		e := &Eigen{Values: tc.vals, Vectors: Identity(len(tc.vals))}
		if got := e.LargestGapSplit(); got != tc.want {
			t.Errorf("LargestGapSplit(%v) = %d, want %d", tc.vals, got, tc.want)
		}
	}
}

// maxJacobiSweeps bounds the cyclic Jacobi iteration. Convergence for
// well-conditioned symmetric matrices is quadratic; 64 sweeps is far more
// than needed at m ≤ a few hundred and serves as a hard safety stop.
const maxJacobiSweeps = 64

// eigenSymJacobi computes the eigendecomposition of the symmetric matrix
// a using the cyclic Jacobi rotation method: the test oracle EigenSym is
// cross-validated against. It costs ~10 full O(m³) sweeps where EigenSym
// pays one O(m³) Householder reduction, but its rotations are applied
// directly to the input, an algorithm independent of QL. The input must
// be symmetric; the strictly upper triangle is trusted (a is symmetrized
// internally to guard against small asymmetries from floating-point
// covariance estimation).
func eigenSymJacobi(a *Dense) (*Eigen, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("mat: eigenSymJacobi of non-square %dx%d matrix", a.rows, a.cols)
	}
	if n == 0 {
		return &Eigen{Values: nil, Vectors: Zeros(0, 0)}, nil
	}
	// Work on a symmetrized copy.
	w := Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w.data[i*n+j] = 0.5 * (a.data[i*n+j] + a.data[j*n+i])
		}
	}
	v := Identity(n)
	wd, vd := w.data, v.data

	offDiag := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += wd[i*n+j] * wd[i*n+j]
			}
		}
		return math.Sqrt(2 * s)
	}

	scale := MaxAbs(w)
	if scale == 0 {
		scale = 1
	}
	tol := 1e-14 * scale * float64(n)

	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		if offDiag() <= tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := wd[p*n+q]
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app := wd[p*n+p]
				aqq := wd[q*n+q]
				// Compute the Jacobi rotation annihilating (p,q).
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e154 {
					t = 1 / (2 * theta)
				} else {
					t = 1 / (math.Abs(theta) + math.Sqrt(1+theta*theta))
					if theta < 0 {
						t = -t
					}
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				// Update rows/cols p and q of W (symmetric rotation).
				for k := 0; k < n; k++ {
					akp := wd[k*n+p]
					akq := wd[k*n+q]
					wd[k*n+p] = c*akp - s*akq
					wd[k*n+q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk := wd[p*n+k]
					aqk := wd[q*n+k]
					wd[p*n+k] = c*apk - s*aqk
					wd[q*n+k] = s*apk + c*aqk
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp := vd[k*n+p]
					vkq := vd[k*n+q]
					vd[k*n+p] = c*vkp - s*vkq
					vd[k*n+q] = s*vkp + c*vkq
				}
			}
		}
	}

	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = wd[i*n+i]
	}
	// Sort descending, permuting eigenvector columns to match.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] > vals[idx[j]] })
	sortedVals := make([]float64, n)
	vecs := Zeros(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			vecs.data[r*n+newCol] = vd[r*n+oldCol]
		}
	}
	return &Eigen{Values: sortedVals, Vectors: vecs}, nil
}

// crossCheckSolvers runs both eigensolvers on a and requires them to
// agree: eigenvalues to 1e-9 (relative to the spectral scale) and the
// reconstructions Q·Λ·Qᵀ to the same tolerance. Eigenvectors are not
// compared directly — they are only determined up to sign, and up to a
// rotation inside degenerate eigenspaces — but a matching reconstruction
// plus orthonormal columns pins everything that is well-defined.
func crossCheckSolvers(t *testing.T, name string, a *Dense) {
	t.Helper()
	ql, err := EigenSym(a)
	if err != nil {
		t.Fatalf("%s: EigenSym: %v", name, err)
	}
	jac, err := eigenSymJacobi(a)
	if err != nil {
		t.Fatalf("%s: eigenSymJacobi: %v", name, err)
	}
	scale := math.Max(1, MaxAbs(a))
	tol := 1e-9 * scale
	for i := range ql.Values {
		if d := math.Abs(ql.Values[i] - jac.Values[i]); d > tol {
			t.Fatalf("%s: eigenvalue %d differs by %g (QL %v, Jacobi %v)", name, i, d, ql.Values[i], jac.Values[i])
		}
	}
	if !IsOrthonormalColumns(ql.Vectors, 1e-9) {
		t.Fatalf("%s: QL eigenvectors not orthonormal", name)
	}
	if !ql.Reconstruct().EqualApprox(a, tol) {
		t.Fatalf("%s: QL reconstruction off by more than %g", name, tol)
	}
	if !jac.Reconstruct().EqualApprox(a, tol) {
		t.Fatalf("%s: Jacobi reconstruction off by more than %g", name, tol)
	}
}

// TestEigenSymQLvsJacobiSpiked cross-validates the two solvers on the
// paper's spiked-covariance shape (few large eigenvalues over a flat
// tail) at several sizes.
func TestEigenSymQLvsJacobiSpiked(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, n := range []int{3, 10, 40, 100} {
		q := RandomOrthogonal(n, rng)
		vals := make([]float64, n)
		for i := range vals {
			if i < n/10+1 {
				vals[i] = 400
			} else {
				vals[i] = 4
			}
		}
		e := &Eigen{Values: vals, Vectors: q}
		crossCheckSolvers(t, "spiked", e.Reconstruct())
	}
}

// TestEigenSymQLvsJacobiDegenerate cross-validates on spectra with
// repeated eigenvalues, where eigenvectors are only defined up to a
// rotation of the degenerate subspace.
func TestEigenSymQLvsJacobiDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	q := RandomOrthogonal(12, rng)
	vals := []float64{9, 9, 9, 9, 4, 4, 4, 1, 1, 1, 1, 1}
	e := &Eigen{Values: vals, Vectors: q}
	a := e.Reconstruct()
	crossCheckSolvers(t, "degenerate", a)

	got, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		if math.Abs(got.Values[i]-want) > 1e-9 {
			t.Fatalf("degenerate eigenvalue %d = %v, want %v", i, got.Values[i], want)
		}
	}
}

// TestEigenSymQLvsJacobiNearZero cross-validates on (near-)zero matrices
// — the all-zero matrix, a tiny perturbation of it, and a rank-1 matrix
// whose remaining spectrum is exactly zero.
func TestEigenSymQLvsJacobiNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	crossCheckSolvers(t, "zero", Zeros(7, 7))

	tiny := Zeros(6, 6)
	for i := range tiny.data {
		tiny.data[i] = 1e-13 * rng.NormFloat64()
	}
	// Symmetrize the perturbation.
	sym := Scale(0.5, Add(tiny, Transpose(tiny)))
	crossCheckSolvers(t, "near-zero", sym)

	u := make([]float64, 9)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	crossCheckSolvers(t, "rank-1", OuterProduct(u, u))
}

// TestEigenSymWSReuse runs the workspace-threaded solver repeatedly and
// checks the results match the allocating path bit-for-bit while the
// workspace stops growing after the first decomposition.
func TestEigenSymWSReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	g := randomMatrix(20, 20, rng)
	a := Mul(Transpose(g), g)
	want, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	var grown int
	for i := 0; i < 4; i++ {
		ws.Reset()
		got, err := EigenSymWS(ws, a)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want.Values {
			if got.Values[k] != want.Values[k] {
				t.Fatalf("run %d: workspace path changed eigenvalue %d", i, k)
			}
		}
		if !got.Vectors.Equal(want.Vectors) {
			t.Fatalf("run %d: workspace path changed eigenvectors", i)
		}
		if i == 0 {
			grown = len(ws.bufs)
		} else if len(ws.bufs) != grown {
			t.Fatalf("run %d: workspace kept growing (%d -> %d buffers)", i, grown, len(ws.bufs))
		}
	}
}

func TestEnergySplit(t *testing.T) {
	e := &Eigen{Values: []float64{50, 30, 15, 5}, Vectors: Identity(4)}
	if got := e.EnergySplit(0.5); got != 1 {
		t.Errorf("EnergySplit(0.5) = %d, want 1", got)
	}
	if got := e.EnergySplit(0.8); got != 2 {
		t.Errorf("EnergySplit(0.8) = %d, want 2", got)
	}
	if got := e.EnergySplit(1.0); got != 4 {
		t.Errorf("EnergySplit(1.0) = %d, want 4", got)
	}
	zero := &Eigen{Values: []float64{0, 0}, Vectors: Identity(2)}
	if got := zero.EnergySplit(0.9); got != 2 {
		t.Errorf("EnergySplit on zero spectrum = %d, want 2", got)
	}
}
