package mat

import (
	"runtime"
	"sync"
)

// kernelTokens bounds the number of extra goroutines the data-parallel
// kernels may have in flight process-wide. Kernels often run underneath
// an already-parallel caller (the experiment trial pool); without a
// global budget, W trials × GOMAXPROCS kernel goroutines would
// oversubscribe the machine. A worker that finds no token free simply
// runs its chunk inline — chunk boundaries never change, so results are
// unaffected.
var kernelTokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// parallelRows splits [0, rows) into one contiguous chunk per worker and
// runs work(r0, r1) on each, inline or on a goroutine as the token
// budget allows. Chunk boundaries depend only on rows and the worker
// count, and callers write disjoint row ranges, so results are
// deterministic; callers that need bit-identical output at any
// parallelism (the GEMM kernels) additionally keep each output
// element's arithmetic entirely within one chunk.
func parallelRows(rows, workers int, work func(r0, r1 int)) {
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		work(0, rows)
		return
	}
	bounds := make([]int, workers+1)
	for k := 0; k <= workers; k++ {
		bounds[k] = k * rows / workers
	}
	parallelBounds(bounds, work)
}

// ParallelFor runs work(i) once for every i in [0, n). The indices are
// split into at most GOMAXPROCS contiguous runs, and each run goes
// inline or on a goroutine as the process-wide kernel token budget
// allows, so callers fanning out independent items (UDR's attributes)
// share the data-parallel kernels' ceiling instead of starting a pool of
// their own. Which goroutine runs an index is not fixed: work must
// depend only on i and write only outputs no other index writes.
func ParallelFor(n int, work func(i int)) {
	parallelRows(n, maxWorkers(), func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			work(i)
		}
	})
}

// parallelBounds runs work(bounds[k], bounds[k+1]) for every consecutive
// boundary pair, inline or on a goroutine as the token budget allows.
// It is the spawn engine under parallelRows and the weighted splits
// (SymRankKUpperInto's triangular partition); the caller fixes the
// boundaries, so which goroutine runs a segment never affects results.
func parallelBounds(bounds []int, work func(r0, r1 int)) {
	var wg sync.WaitGroup
	for k := 1; k+1 < len(bounds); k++ {
		r0, r1 := bounds[k], bounds[k+1]
		if r0 == r1 {
			continue
		}
		select {
		case kernelTokens <- struct{}{}:
			wg.Add(1)
			go func(r0, r1 int) {
				defer func() {
					<-kernelTokens
					wg.Done()
				}()
				work(r0, r1)
			}(r0, r1)
		default:
			work(r0, r1)
		}
	}
	work(bounds[0], bounds[1])
	wg.Wait()
}

// maxWorkers is the fan-out ceiling for the data-parallel kernels.
func maxWorkers() int { return runtime.GOMAXPROCS(0) }
