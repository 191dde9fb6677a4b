package mat

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestMulParallelMatchesSerial drives Mul above the fan-out threshold
// and checks the result bit-for-bit against the single-worker kernel.
func TestMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, m = 300, 80 // n·m·n > gemmParallelMinFlops
	a := Zeros(n, m)
	for i := range a.data {
		a.data[i] = rng.NormFloat64()
	}
	b := Transpose(a)
	got := Mul(a, b)

	want := Zeros(n, n)
	var packB [nr * kcBlock]float64
	gemmRows(want.data, a.data, b.data, n, m, n, 0, n, packB[:])
	if !got.Equal(want) {
		t.Fatal("parallel Mul differs from serial kernel")
	}
}

func TestParallelRowsCoversRange(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const rows = 100
		var hit [rows]int64
		parallelRows(rows, workers, func(r0, r1 int) {
			for i := r0; i < r1; i++ {
				atomic.AddInt64(&hit[i], 1)
			}
		})
		for i, v := range hit {
			if v != 1 {
				t.Fatalf("workers=%d: row %d covered %d times", workers, i, v)
			}
		}
	}
}

func TestParallelForRunsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		hit := make([]int64, n)
		ParallelFor(n, func(i int) { atomic.AddInt64(&hit[i], 1) })
		for i, v := range hit {
			if v != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, v)
			}
		}
	}
}
