package experiment

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"randpriv/internal/sweep"
)

// withGOMAXPROCS sets GOMAXPROCS for the rest of the test and restores
// the previous value when the test ends.
func withGOMAXPROCS(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestTrialSeedDecorrelated(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 1000; i++ {
		s := sweep.TrialSeed(2005, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("trials %d and %d share seed %d", j, i, s)
		}
		seen[s] = i
	}
	if sweep.TrialSeed(1, 0) == sweep.TrialSeed(2, 0) {
		t.Error("different base seeds must give different trial seeds")
	}
}

func TestRunnerRunsEveryTrialOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(t, procs)
		var counts [50]int64
		err := Runner{}.Run(len(counts), 7, func(i int, rng *rand.Rand) error {
			atomic.AddInt64(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("GOMAXPROCS=%d: trial %d ran %d times", procs, i, c)
			}
		}
	}
}

// TestRunnerDeterministicAcrossWorkers is the reproducibility contract:
// the same seed must produce bit-identical trial outputs no matter how
// many goroutines execute the trials.
func TestRunnerDeterministicAcrossWorkers(t *testing.T) {
	draw := func(procs int) []float64 {
		withGOMAXPROCS(t, procs)
		out := make([]float64, 20)
		err := Runner{}.Run(len(out), 2005, func(i int, rng *rand.Rand) error {
			// A few dependent draws so any stream-sharing between trials
			// or re-seeding difference would show up.
			v := rng.NormFloat64()
			for k := 0; k < i%5; k++ {
				v += rng.Float64()
			}
			out[i] = v
			return nil
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return out
	}
	want := draw(1)
	if got := draw(4); !reflect.DeepEqual(got, want) {
		t.Errorf("GOMAXPROCS=4 diverged from GOMAXPROCS=1:\ngot  %v\nwant %v", got, want)
	}
}

// TestExperimentsDeterministicAcrossWorkers runs real sweeps at
// GOMAXPROCS 1 and 4 and demands identical figures.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	cfg := smallCfg()
	cfg.N = 200
	base := func(procs int) *Figure {
		withGOMAXPROCS(t, procs)
		fig, err := Experiment1(cfg, []int{5, 10, 15, 20})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return fig
	}
	want := base(1)
	if got := base(4); !reflect.DeepEqual(got.Points, want.Points) {
		t.Error("Experiment1 at GOMAXPROCS=4 diverged from GOMAXPROCS=1")
	}

	fig4 := func(procs int) *Figure4 {
		withGOMAXPROCS(t, procs)
		fig, err := experiment4At(cfg, 10, 5, []float64{0, 0.5, 1, 1.5, 2})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return fig
	}
	want4 := fig4(1)
	if got4 := fig4(4); !reflect.DeepEqual(got4.Points, want4.Points) {
		t.Error("Experiment4 at GOMAXPROCS=4 diverged from GOMAXPROCS=1")
	}
	if want4.IndependentIndex != 2 {
		t.Errorf("IndependentIndex = %d, want 2", want4.IndependentIndex)
	}
}

func TestRunnerPropagatesError(t *testing.T) {
	sentinel := errors.New("trial failed")
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(t, procs)
		err := Runner{}.Run(10, 7, func(i int, rng *rand.Rand) error {
			if i == 6 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("GOMAXPROCS=%d: err = %v, want sentinel", procs, err)
		}
	}
}

func TestRunnerReturnsLowestIndexedError(t *testing.T) {
	withGOMAXPROCS(t, 4)
	errLow, errHigh := errors.New("low"), errors.New("high")
	err := Runner{}.Run(8, 7, func(i int, rng *rand.Rand) error {
		switch i {
		case 2:
			return errLow
		case 7:
			return errHigh
		}
		return nil
	})
	// Trial 7 may be skipped after trial 2 fails; either way the error of
	// the lowest-indexed failing trial that ran must win.
	if !errors.Is(err, errLow) {
		t.Errorf("err = %v, want the lowest-indexed trial error", err)
	}
}

func TestRunnerZeroTrials(t *testing.T) {
	called := false
	err := Runner{}.Run(0, 7, func(i int, rng *rand.Rand) error {
		called = true
		return nil
	})
	if err != nil {
		t.Fatalf("n=0: %v", err)
	}
	if called {
		t.Error("fn must not run for n=0")
	}
}
