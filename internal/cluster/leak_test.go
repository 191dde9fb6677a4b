// Goroutine leak checks for the cluster-plane shutdown paths. Run under
// -race in CI; a claim loop or heartbeat ticker that outlives Stop shows
// up here as a count that never settles back to the baseline.

package cluster

import (
	"runtime"
	"testing"
	"time"
)

// settlesTo waits for the goroutine count to drop back to at most base,
// retrying because runtime bookkeeping goroutines exit asynchronously.
func settlesTo(t *testing.T, base int) {
	t.Helper()
	var n int
	for i := 0; i < 200; i++ {
		n = runtime.NumGoroutine()
		if n <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines: %d before, %d still running after shutdown\n%s",
		base, n, buf[:runtime.Stack(buf, true)])
}

func TestWorkerStopLeaksNoGoroutines(t *testing.T) {
	st := openStore(t)
	base := runtime.NumGoroutine()

	w, err := NewWorker(st, WorkerOptions{Node: "leaky", Poll: time.Millisecond, HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w.Register(TaskSweepGroup, echoRunner)
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	// Let it run a task so the claim loop exercises the full path.
	if err := st.Enqueue(fakeTask(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, ok, _ := st.TaskResult(fakeTask(1).ID); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("task never completed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	w.Stop()
	w.Stop() // Stop must be idempotent
	settlesTo(t, base)
}

func TestCoordinatorCloseLeaksNoGoroutines(t *testing.T) {
	st := openStore(t)
	base := runtime.NumGoroutine()

	c, err := NewCoordinator(st, CoordinatorOptions{
		Node: "coord-leak", Workers: 2,
		Poll: time.Millisecond, HeartbeatEvery: 5 * time.Millisecond,
		LeaseTTL: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let every loop spin at least once
	c.Close()
	settlesTo(t, base)
}
