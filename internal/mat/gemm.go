package mat

import "fmt"

// This file is the blocked GEMM kernel layer. Every dense product in the
// library — plain A·B, the transpose-free A·Bᵀ form, and the
// symmetric rank-k Gram update Aᵀ·A — funnels into one register-tiled
// micro-kernel design:
//
//   - the k (reduction) dimension is cut into fixed kcBlock slabs so the
//     operand panels live in cache while they are reused;
//   - within a slab, output is produced in mr×nr = 2×4 register tiles;
//     the B panel of a tile column is packed into a small contiguous
//     k-major buffer once per slab and reused by every tile row, so the
//     innermost loop streams adjacent floats and keeps all 8 accumulators
//     plus the 6 operand values in registers (14 of amd64's 16 float
//     registers — a 4×4 tile's 24 live values would spill);
//   - there is no zero-skip branch: the branch predictor cost and the
//     value-dependent instruction stream of the old ikj kernel are gone.
//
// Determinism contract: every output element is accumulated by exactly
// one goroutine, in an order fixed by the operand shapes alone (k-slab
// order, then sequentially within a slab). Worker count and row-range
// splits never change any element's summation tree, so results are
// bit-identical at any parallelism. The blocked accumulation order does
// differ from the old streaming-ikj kernel in the last bits; goldens that
// pin printed digits were regenerated when this layer landed (PR 4).

const (
	// mr×nr is the register tile shape (see the register-budget note
	// above).
	mr = 2
	nr = 4
	// kcBlock is the reduction-slab depth: the packed kc×4 B panel
	// (4·256·8 = 8 KiB) stays resident in L1 while a row range reuses
	// it, and the A row band stays in L2.
	kcBlock = 256
	// gemmParallelMinFlops is the multiply-add count above which a
	// product fans out across goroutines; below it the fork/join
	// overhead exceeds the arithmetic.
	gemmParallelMinFlops = 1 << 20
)

// aRowPair returns the two [k0,k1) segments of consecutive A rows
// starting at i0, aliasing row i0 when a ragged edge tile has only one
// row: the micro-kernels stay branch-free and the duplicated result is
// simply not written back.
func aRowPair(a []float64, lda, i0, rows, k0, k1 int) (a0, a1 []float64) {
	a0 = a[i0*lda+k0 : i0*lda+k1]
	a1 = a0
	if rows > 1 {
		a1 = a[(i0+1)*lda+k0 : (i0+1)*lda+k1]
	}
	return a0, a1
}

// gemmRows computes dst[r0:r1, :] += a[r0:r1, :]·b for row-major
// operands; it is the per-worker body of gemm. For each reduction slab,
// each kc×4 column panel of B is packed k-major once and reused by every
// tile row in the range; A needs no packing — its row segments are
// already contiguous along k.
func gemmRows(dst, a, b []float64, m, k, n, r0, r1 int, packB []float64) {
	for k0 := 0; k0 < k; k0 += kcBlock {
		k1 := k0 + kcBlock
		if k1 > k {
			k1 = k
		}
		kc := k1 - k0
		for j0 := 0; j0 < n; j0 += nr {
			cols := n - j0
			if cols > nr {
				cols = nr
			}
			if cols == nr {
				for kk := 0; kk < kc; kk++ {
					bs := b[(k0+kk)*n+j0 : (k0+kk)*n+j0+nr]
					pq := packB[kk*nr : kk*nr+nr]
					pq[0] = bs[0]
					pq[1] = bs[1]
					pq[2] = bs[2]
					pq[3] = bs[3]
				}
			}
			for i0 := r0; i0 < r1; i0 += mr {
				rows := r1 - i0
				if rows > mr {
					rows = mr
				}
				a0, a1 := aRowPair(a, k, i0, rows, k0, k1)
				if cols == nr {
					microKernel2x4(dst, a0, a1, packB, n, i0, j0, rows)
				} else {
					microKernelEdge(dst, a0, a1, b, k0, i0, j0, rows, cols, n)
				}
			}
		}
	}
}

// microKernel2x4 accumulates a full-width 2×4 tile of dst: a0 and a1 are
// the [k0,k1) segments of two A rows, pb the packed kc×4 B panel
// (pb[4k..4k+3] holds the four B columns at depth k). All 8 partial sums
// live in registers for the whole k loop.
func microKernel2x4(dst, a0, a1, pb []float64, n, i0, j0, rows int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	a1 = a1[:len(a0)]
	pb = pb[:len(a0)*nr]
	for kk, av0 := range a0 {
		bq := pb[kk*nr : kk*nr+nr]
		b0, b1, b2, b3 := bq[0], bq[1], bq[2], bq[3]
		av1 := a1[kk]
		c00 += av0 * b0
		c01 += av0 * b1
		c02 += av0 * b2
		c03 += av0 * b3
		c10 += av1 * b0
		c11 += av1 * b1
		c12 += av1 * b2
		c13 += av1 * b3
	}
	writeTile(dst, n, i0, j0, rows, nr, c00, c01, c02, c03, c10, c11, c12, c13)
}

// microKernelEdge handles the ragged final tile columns (cols < nr),
// reading B in place. The per-element k order is identical to the packed
// kernel's, so edge elements obey the same determinism contract.
func microKernelEdge(dst, a0, a1, b []float64, k0, i0, j0, rows, cols, n int) {
	a1 = a1[:len(a0)]
	for jj := 0; jj < cols; jj++ {
		var c0, c1 float64
		for kk := range a0 {
			bv := b[(k0+kk)*n+j0+jj]
			c0 += a0[kk] * bv
			c1 += a1[kk] * bv
		}
		dst[i0*n+j0+jj] += c0
		if rows > 1 {
			dst[(i0+1)*n+j0+jj] += c1
		}
	}
}

// writeTile adds the register tile into dst, clipped to rows×cols.
func writeTile(dst []float64, n, i0, j0, rows, cols int,
	c00, c01, c02, c03,
	c10, c11, c12, c13 float64) {
	row := dst[i0*n+j0:]
	row[0] += c00
	if cols > 1 {
		row[1] += c01
	}
	if cols > 2 {
		row[2] += c02
	}
	if cols > 3 {
		row[3] += c03
	}
	if rows > 1 {
		row = dst[(i0+1)*n+j0:]
		row[0] += c10
		if cols > 1 {
			row[1] += c11
		}
		if cols > 2 {
			row[2] += c12
		}
		if cols > 3 {
			row[3] += c13
		}
	}
}

// gemm computes dst += a·b (all row-major, shapes m×k · k×n → m×n),
// fanning out across row blocks when the product is large enough. The
// per-worker B pack buffer is a fixed-size stack allocation, so gemm
// itself never allocates on the heap.
func gemm(dst, a, b []float64, m, k, n int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	workers := 1
	if flops := int64(m) * int64(k) * int64(n); flops >= gemmParallelMinFlops {
		workers = maxWorkers()
	}
	if workers <= 1 {
		// Direct call: no closure, and the pack buffer stays on the
		// caller's stack — steady-state products allocate nothing.
		var packB [nr * kcBlock]float64
		gemmRows(dst, a, b, m, k, n, 0, m, packB[:])
		return
	}
	parallelRows(m, workers, func(r0, r1 int) {
		var packB [nr * kcBlock]float64
		gemmRows(dst, a, b, m, k, n, r0, r1, packB[:])
	})
}

// MulABT returns a·bᵀ for a (m×k) and b (n×k): the transpose-free form of
// Mul(a, Transpose(b)).
func MulABT(a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulABT shape mismatch %dx%d · (%dx%d)ᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	return MulABTInto(Zeros(a.rows, b.rows), a, b)
}

// MulABTInto computes a·bᵀ into dst (zeroed first) and returns dst. Both
// operands are walked along their contiguous rows — the product never
// materializes bᵀ, which is what lets the attack pipelines drop their
// Transpose temporaries. dst must not alias a or b.
func MulABTInto(dst, a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulABTInto shape mismatch %dx%d · (%dx%d)ᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("mat: MulABTInto destination is %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.rows))
	}
	if dst == a || dst == b {
		panic("mat: MulABTInto destination aliases an operand")
	}
	for i := range dst.data {
		dst.data[i] = 0
	}
	m, k, n := a.rows, a.cols, b.rows
	if m == 0 || n == 0 || k == 0 {
		return dst
	}
	workers := 1
	if flops := int64(m) * int64(k) * int64(n); flops >= gemmParallelMinFlops {
		workers = maxWorkers()
	}
	ad, bd, dd := a.data, b.data, dst.data
	if workers <= 1 {
		mulABTRows(dd, ad, bd, k, n, 0, m)
		return dst
	}
	parallelRows(m, workers, func(r0, r1 int) {
		mulABTRows(dd, ad, bd, k, n, r0, r1)
	})
	return dst
}

// mulABTRows computes dst[r0:r1, :] += a[r0:r1, :]·bᵀ. Rows of a and b
// are both contiguous dot-product operands, so no packing is needed: the
// 2×4 tile loop reads two a rows and four b rows in lockstep.
func mulABTRows(dst, a, b []float64, k, n, r0, r1 int) {
	for k0 := 0; k0 < k; k0 += kcBlock {
		k1 := k0 + kcBlock
		if k1 > k {
			k1 = k
		}
		for j0 := 0; j0 < n; j0 += nr {
			cols := n - j0
			if cols > nr {
				cols = nr
			}
			for i0 := r0; i0 < r1; i0 += mr {
				rows := r1 - i0
				if rows > mr {
					rows = mr
				}
				dotTile(dst, a, b, k, n, i0, j0, rows, cols, k0, k1)
			}
		}
	}
}

// dotTile accumulates the rows×cols (≤2×4) tile dst[i0.., j0..] +=
// Σ_k a[i, k]·b[j, k] over k in [k0,k1). Short tiles alias row 0 / col 0
// operands; their duplicate results are discarded by the bounded
// write-back.
func dotTile(dst, a, b []float64, k, n, i0, j0, rows, cols, k0, k1 int) {
	a0, a1 := aRowPair(a, k, i0, rows, k0, k1)
	b0 := b[j0*k+k0 : j0*k+k1]
	b1, b2, b3 := b0, b0, b0
	if cols > 1 {
		b1 = b[(j0+1)*k+k0 : (j0+1)*k+k1]
	}
	if cols > 2 {
		b2 = b[(j0+2)*k+k0 : (j0+2)*k+k1]
	}
	if cols > 3 {
		b3 = b[(j0+3)*k+k0 : (j0+3)*k+k1]
	}
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	a1 = a1[:len(a0)]
	b0 = b0[:len(a0)]
	b1 = b1[:len(a0)]
	b2 = b2[:len(a0)]
	b3 = b3[:len(a0)]
	for kk, av0 := range a0 {
		av1 := a1[kk]
		bv0, bv1, bv2, bv3 := b0[kk], b1[kk], b2[kk], b3[kk]
		c00 += av0 * bv0
		c01 += av0 * bv1
		c02 += av0 * bv2
		c03 += av0 * bv3
		c10 += av1 * bv0
		c11 += av1 * bv1
		c12 += av1 * bv2
		c13 += av1 * bv3
	}
	writeTile(dst, n, i0, j0, rows, cols, c00, c01, c02, c03, c10, c11, c12, c13)
}

// SymRankKInto computes α·aᵀ·a into the m×m destination (zeroed first)
// and returns dst. Only one triangle is accumulated — half the FLOPs of a
// general product — and mirrored; this is the covariance/Gram kernel of
// stat.CovarianceMatrix and the streaming moment sketch. dst must not
// alias a.
func SymRankKInto(dst, a *Dense, alpha float64) *Dense {
	m := a.cols
	if dst.rows != m || dst.cols != m {
		panic(fmt.Sprintf("mat: SymRankKInto destination is %dx%d, want %dx%d", dst.rows, dst.cols, m, m))
	}
	if dst == a {
		panic("mat: SymRankKInto destination aliases the operand")
	}
	for i := range dst.data {
		dst.data[i] = 0
	}
	SymRankKUpperInto(dst.data, a)
	// Scale and mirror the accumulated upper triangle.
	dd := dst.data
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			v := dd[i*m+j] * alpha
			dd[i*m+j] = v
			dd[j*m+i] = v
		}
	}
	return dst
}

// SymRankKUpperInto adds the upper triangle (j ≥ i) of aᵀ·a into the raw
// m×m row-major accumulator acc, leaving the strict lower triangle
// untouched. It is the shared triangular Gram primitive: the streaming
// moment sketch maintains exactly this layout, so it can fold a centered
// chunk with the blocked kernel and no mirroring cost.
//
// The k (row) dimension is cut into kcBlock slabs and each 2×4 tile of
// the triangle is accumulated in registers; diagonal-straddling and
// ragged tiles fall back to a scalar loop with the same per-element k
// order. Output tiles are computed concurrently for large inputs;
// per-element accumulation order is fixed by the shapes alone, so
// results are bit-identical at any worker count.
func SymRankKUpperInto(acc []float64, a *Dense) {
	n, m := a.rows, a.cols
	if len(acc) != m*m {
		panic(fmt.Sprintf("mat: SymRankKUpperInto accumulator length %d, want %d", len(acc), m*m))
	}
	if n == 0 || m == 0 {
		return
	}
	workers := 1
	if flops := int64(n) * int64(m) * int64(m) / 2; flops >= gemmParallelMinFlops {
		workers = maxWorkers()
	}
	ad := a.data
	if workers > m {
		workers = m
	}
	if workers <= 1 {
		symRankKRows(acc, ad, n, m, 0, m)
		return
	}
	parallelBounds(symRankKSplit(m, workers), func(r0, r1 int) {
		symRankKRows(acc, ad, n, m, r0, r1)
	})
}

// symRankKSplit returns workers+1 row boundaries that give each worker
// an (approximately) equal share of the upper triangle's area — row i
// carries m−i outputs, so an even row split would hand the first worker
// ~2× the mean work and cap the fan-out's scaling. Boundaries depend
// only on (m, workers); per-element accumulation order is unchanged, so
// the balanced split preserves bit-identical results.
func symRankKSplit(m, workers int) []int {
	bounds := make([]int, workers+1)
	total := m * (m + 1) / 2
	r := 0
	for k := 1; k < workers; k++ {
		target := k * total / workers
		// cum(r) = Σ_{i<r}(m−i) = r·m − r(r−1)/2, nondecreasing in r.
		for r < m && r*m-r*(r-1)/2 < target {
			r++
		}
		bounds[k] = r
	}
	bounds[workers] = m
	return bounds
}

// symRankKRows accumulates output rows [r0,r1) of the upper triangle of
// aᵀ·a into acc.
func symRankKRows(acc, a []float64, n, m, r0, r1 int) {
	for k0 := 0; k0 < n; k0 += kcBlock {
		k1 := k0 + kcBlock
		if k1 > n {
			k1 = n
		}
		for i0 := r0; i0 < r1; i0 += mr {
			rows := r1 - i0
			if rows > mr {
				rows = mr
			}
			// Start tile columns at the diagonal block of this tile row.
			for j0 := i0; j0 < m; j0 += nr {
				cols := m - j0
				if cols > nr {
					cols = nr
				}
				if rows == mr && cols == nr && j0 >= i0+mr {
					// Strictly above the diagonal: a full branch-free tile.
					symTile2x4(acc, a, m, i0, j0, k0, k1)
					continue
				}
				// Diagonal-straddling or ragged tile: scalar, upper
				// entries only, same per-element k order.
				for i := i0; i < i0+rows; i++ {
					for j := j0; j < j0+cols; j++ {
						if j < i {
							continue
						}
						var s float64
						for kk := k0; kk < k1; kk++ {
							s += a[kk*m+i] * a[kk*m+j]
						}
						acc[i*m+j] += s
					}
				}
			}
		}
	}
}

// symTile2x4 accumulates a full 2×4 tile acc[i0.., j0..] +=
// Σ_k a[k, i]·a[k, j] over k in [k0,k1). Both index bands of row k are
// contiguous loads and all 8 partial sums stay in registers.
func symTile2x4(acc, a []float64, m, i0, j0, k0, k1 int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	for kk := k0; kk < k1; kk++ {
		base := a[kk*m:]
		ai := base[i0 : i0+mr]
		aj := base[j0 : j0+nr]
		a0, a1 := ai[0], ai[1]
		b0, b1, b2, b3 := aj[0], aj[1], aj[2], aj[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
	}
	writeTile(acc, m, i0, j0, mr, nr, c00, c01, c02, c03, c10, c11, c12, c13)
}
