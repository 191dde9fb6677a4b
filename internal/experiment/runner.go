package experiment

import (
	"math/rand"
	"runtime"
	"sync"

	"randpriv/internal/mat"
	"randpriv/internal/sweep"
)

// Runner executes independent trials on a claim loop of GOMAXPROCS
// goroutines. Each trial receives its own rand.Rand seeded by
// sweep.TrialSeed(base seed, trial index), so the results are bit-for-bit
// identical at any GOMAXPROCS — the property the figure sweeps rely on to
// stay reproducible while scaling across cores. Trials are claimed one at
// a time, so a few costly trials (Figure 1's large-m points) spread over
// the goroutines instead of queueing behind one.
type Runner struct{}

// Run executes fn(i, rng) for every trial i in [0, n), each with a fresh
// rand.Rand seeded by sweep.TrialSeed(seed, i). Trials run concurrently;
// fn must only write to per-trial state (e.g. its own slot of a
// pre-allocated result slice).
//
// If any trial fails, Run stops handing out further trials and returns
// the error of the lowest-indexed trial that failed (deterministic when a
// single trial is at fault, which covers the validation errors the
// experiments can produce).
func (r Runner) Run(n int, seed int64, fn func(trial int, rng *rand.Rand) error) error {
	return r.RunWS(n, seed, func(trial int, rng *rand.Rand, _ *mat.Workspace) error {
		return fn(trial, rng)
	})
}

// RunWS is Run with a scratch arena per goroutine: every trial
// additionally receives a mat.Workspace, reset before the trial starts,
// that the goroutine reuses across all the trials it claims. Steady-state
// sweeps (every point allocating the same attack shapes) therefore stop
// paying per-trial matrix allocations. Buffers are zeroed on Get, so
// results remain bit-identical at any GOMAXPROCS.
func (r Runner) RunWS(n int, seed int64, fn func(trial int, rng *rand.Rand, ws *mat.Workspace) error) error {
	var (
		mu       sync.Mutex
		firstErr error
		errIdx   int
		next     int
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil || i < errIdx {
			firstErr, errIdx = err, i
		}
	}

	var wg sync.WaitGroup
	for k := min(runtime.GOMAXPROCS(0), n); k > 0; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := mat.NewWorkspace()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				ws.Reset()
				if err := fn(i, rand.New(rand.NewSource(sweep.TrialSeed(seed, i))), ws); err != nil {
					fail(i, err)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
