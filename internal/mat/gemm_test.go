package mat

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMul is the reference triple loop the blocked kernels are validated
// against.
func naiveMul(a, b *Dense) *Dense {
	out := Zeros(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s float64
			for k := 0; k < a.cols; k++ {
				s += a.data[i*a.cols+k] * b.data[k*b.cols+j]
			}
			out.data[i*out.cols+j] = s
		}
	}
	return out
}

func randDense(r, c int, rng *rand.Rand) *Dense {
	m := Zeros(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// maxAbsDiff returns the largest element-wise |a-b|.
func maxAbsDiff(t *testing.T, a, b *Dense) float64 {
	t.Helper()
	if a.rows != b.rows || a.cols != b.cols {
		t.Fatalf("shape mismatch %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	var worst float64
	for i, v := range a.data {
		if d := math.Abs(v - b.data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// gemmShapes is the randomized + adversarial shape set shared by the
// blocked-kernel property tests: empty operands, single elements, sizes
// straddling the 4×4 register tile, and depths straddling the kcBlock
// slab boundary so ragged tail blocks of every kind are exercised.
func gemmShapes(rng *rand.Rand) [][3]int {
	shapes := [][3]int{
		{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {0, 0, 0},
		{1, 1, 1}, {1, 5, 1}, {4, 4, 4}, {5, 5, 5},
		{3, 7, 2}, {4, kcBlock, 4}, {3, kcBlock + 1, 5},
		{2, 2*kcBlock + 3, 3}, {17, 31, 13},
	}
	for i := 0; i < 12; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(3*kcBlock/2), 1 + rng.Intn(40)})
	}
	return shapes
}

// TestMulIntoMatchesNaive validates the blocked A·B kernel against the
// reference triple loop over randomized and degenerate shapes.
func TestMulIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range gemmShapes(rng) {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := randDense(m, k, rng), randDense(k, n, rng)
		got := MulInto(Zeros(m, n), a, b)
		want := naiveMul(a, b)
		if d := maxAbsDiff(t, got, want); d > 1e-10*float64(k+1) {
			t.Errorf("MulInto %dx%d·%dx%d differs from naive by %g", m, k, k, n, d)
		}
	}
}

// TestMulABTIntoMatchesNaive validates A·Bᵀ against naive Mul(a, bᵀ).
func TestMulABTIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range gemmShapes(rng) {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := randDense(m, k, rng), randDense(n, k, rng)
		got := MulABTInto(Zeros(m, n), a, b)
		want := naiveMul(a, Transpose(b))
		if d := maxAbsDiff(t, got, want); d > 1e-10*float64(k+1) {
			t.Errorf("MulABTInto %dx%d·(%dx%d)ᵀ differs from naive by %g", m, k, n, k, d)
		}
	}
}

// TestSymRankKMatchesNaive validates the triangular Gram kernel against
// naive aᵀ·a, including symmetry of the mirrored output.
func TestSymRankKMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	shapes := [][2]int{
		{0, 4}, {4, 0}, {1, 1}, {1, 7}, {7, 1}, {4, 4}, {5, 5},
		{kcBlock + 3, 6}, {2*kcBlock + 1, 9}, {300, 17},
	}
	for i := 0; i < 10; i++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(3*kcBlock/2), 1 + rng.Intn(50)})
	}
	for _, sh := range shapes {
		n, m := sh[0], sh[1]
		a := randDense(n, m, rng)
		alpha := 1.0
		if n > 1 {
			alpha = 1 / float64(n-1)
		}
		got := SymRankKInto(Zeros(m, m), a, alpha)
		want := Scale(alpha, naiveMul(Transpose(a), a))
		if d := maxAbsDiff(t, got, want); d > 1e-10*float64(n+1) {
			t.Errorf("SymRankKInto %dx%d differs from naive by %g", n, m, d)
		}
		if !got.IsSymmetric(0) {
			t.Errorf("SymRankKInto %dx%d output is not exactly symmetric", n, m)
		}
	}
}

// TestSymRankKUpperIntoAccumulates checks that the raw triangular form
// adds into the accumulator (it must not zero it) and leaves the strict
// lower triangle untouched.
func TestSymRankKUpperIntoAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const n, m = 37, 9
	a := randDense(n, m, rng)
	acc := make([]float64, m*m)
	for i := range acc {
		acc[i] = 1000
	}
	SymRankKUpperInto(acc, a)
	want := naiveMul(Transpose(a), a)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if j < i {
				if acc[i*m+j] != 1000 {
					t.Fatalf("lower-triangle entry (%d,%d) was touched", i, j)
				}
				continue
			}
			if d := math.Abs(acc[i*m+j] - 1000 - want.data[i*m+j]); d > 1e-9 {
				t.Fatalf("upper-triangle entry (%d,%d) off by %g", i, j, d)
			}
		}
	}
}

// TestGemmDeterministicAcrossWorkerSplits verifies the kernel determinism
// contract directly: any row-range split produces bit-identical output,
// because per-element accumulation order depends only on the shapes.
func TestGemmDeterministicAcrossWorkerSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const m, k, n = 23, 2*kcBlock + 7, 19
	a, b := randDense(m, k, rng), randDense(k, n, rng)

	ref := Zeros(m, n)
	var packB [nr * kcBlock]float64
	gemmRows(ref.data, a.data, b.data, m, k, n, 0, m, packB[:])

	for _, splits := range [][]int{{0, 23}, {0, 1, 23}, {0, 5, 9, 10, 23}, {0, 4, 8, 12, 16, 20, 23}} {
		got := Zeros(m, n)
		for s := 0; s+1 < len(splits); s++ {
			gemmRows(got.data, a.data, b.data, m, k, n, splits[s], splits[s+1], packB[:])
		}
		if !got.Equal(ref) {
			t.Fatalf("row split %v changed the result bits", splits)
		}
	}

	// And through the public entry points at forced parallelism.
	if !Mul(a, b).Equal(ref) {
		t.Fatal("Mul differs from the single-range kernel")
	}
}

// TestSymRankKDeterministicAcrossSplits verifies that the triangular
// kernel produces bit-identical output for any row partition — including
// the weighted splits symRankKSplit produces — and that those splits are
// valid monotone covers of [0, m].
func TestSymRankKDeterministicAcrossSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	const n, m = kcBlock + 9, 33
	a := randDense(n, m, rng)

	ref := make([]float64, m*m)
	symRankKRows(ref, a.data, n, m, 0, m)

	splits := [][]int{{0, 1, m}, {0, 7, 8, 20, m}}
	for _, workers := range []int{2, 3, 5, 8} {
		splits = append(splits, symRankKSplit(m, workers))
	}
	for _, bounds := range splits {
		if bounds[0] != 0 || bounds[len(bounds)-1] != m {
			t.Fatalf("split %v does not cover [0,%d]", bounds, m)
		}
		got := make([]float64, m*m)
		for s := 0; s+1 < len(bounds); s++ {
			if bounds[s] > bounds[s+1] {
				t.Fatalf("split %v is not monotone", bounds)
			}
			symRankKRows(got, a.data, n, m, bounds[s], bounds[s+1])
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("split %v changed the result bits at %d", bounds, i)
			}
		}
	}
}

// TestSymRankKSplitBalance checks the weighted partition actually
// balances triangle area: no worker's share may exceed twice the mean —
// the failure mode of an even row split, where the first worker carries
// ~2× the mean and caps scaling.
func TestSymRankKSplitBalance(t *testing.T) {
	for _, m := range []int{16, 100, 333} {
		for _, workers := range []int{2, 4, 8} {
			bounds := symRankKSplit(m, workers)
			total := m * (m + 1) / 2
			area := func(r0, r1 int) int {
				cum := func(r int) int { return r*m - r*(r-1)/2 }
				return cum(r1) - cum(r0)
			}
			for k := 0; k < workers; k++ {
				share := area(bounds[k], bounds[k+1])
				if share*workers > 2*total {
					t.Errorf("m=%d workers=%d: segment %d carries %d of %d (bounds %v)",
						m, workers, k, share, total, bounds)
				}
			}
		}
	}
}

// TestMulABTConsistentWithMulInto ties the transpose-free form to the
// plain kernel through an explicitly materialized transpose.
func TestMulABTConsistentWithMulInto(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := randDense(30, 12, rng)
	b := randDense(25, 12, rng)
	abt := MulABT(a, b)
	viaT := Mul(a, Transpose(b))
	if d := maxAbsDiff(t, abt, viaT); d > 1e-12 {
		t.Errorf("MulABT differs from Mul(a, bᵀ) by %g", d)
	}
}

// TestGemmShapePanics pins the panic contract of the new entry points.
func TestGemmShapePanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	a := Zeros(3, 4)
	b := Zeros(5, 6)
	expectPanic("MulABT mismatch", func() { MulABT(a, b) })
	expectPanic("MulABTInto bad dst", func() { MulABTInto(Zeros(1, 1), a, Zeros(5, 4)) })
	expectPanic("SymRankKInto bad dst", func() { SymRankKInto(Zeros(3, 3), a, 1) })
	expectPanic("SymRankKInto aliased", func() {
		sq := Zeros(4, 4)
		SymRankKInto(sq, sq, 1)
	})
	expectPanic("SymRankKUpperInto short acc", func() { SymRankKUpperInto(make([]float64, 3), a) })
}
