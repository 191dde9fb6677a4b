package cluster

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The fault harness: every failure mode below must converge to the same
// results the runner computes in-process. The hooks let a test hold a
// worker mid-task — after the claim, before the runner — which is
// exactly where a real crash loses work.

// blockFirstTask builds a BeforeRun hook that parks the worker on its
// first claimed task: the task is announced on started, and the hook
// returns only when release is closed. Later tasks pass through.
func blockFirstTask() (hook func(*Task), started chan Task, release chan struct{}) {
	started = make(chan Task)
	release = make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	hook = func(t *Task) {
		if first.CompareAndSwap(true, false) {
			started <- *t
			<-release
		}
	}
	return hook, started, release
}

type planResult struct {
	results [][]byte
	err     error
}

// goRunPlan runs the plan through c on its own goroutine.
func goRunPlan(ctx context.Context, c *Coordinator, tasks []Task) <-chan planResult {
	ch := make(chan planResult, 1)
	go func() {
		results, err := runPlan(ctx, c, tasks)
		ch <- planResult{results, err}
	}()
	return ch
}

// TestFaultKillWorkerMidTask kills a worker between claiming a task and
// running it. The lease sits on a dead node until the coordinator's wait
// loop expires it; a second worker picks the task up and every result
// still equals the runner's in-process output.
func TestFaultKillWorkerMidTask(t *testing.T) {
	st := openStore(t)
	tasks := fakePlan(4)

	hook, started, release := blockFirstTask()
	a, err := NewWorker(st, WorkerOptions{
		Node: "wa", Poll: 2 * time.Millisecond, HeartbeatEvery: 10 * time.Millisecond,
		Hooks: WorkerHooks{BeforeRun: hook},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Register(TaskSweepGroup, echoRunner)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}

	c, err := NewCoordinator(st, CoordinatorOptions{
		Node: "coord", Workers: -1,
		Poll: 5 * time.Millisecond, LeaseTTL: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resCh := goRunPlan(ctx, c, tasks)

	// Worker A claims its first task and parks in the hook. Kill it
	// there — the lease is now held by a dead node — then let the blocked
	// goroutine observe the kill and abandon the task.
	killed := <-started
	a.Kill()
	close(release)

	// Worker B arrives after the crash and must finish everything,
	// including the abandoned task once its lease expires.
	b, err := NewWorker(st, WorkerOptions{
		Node: "wb", Poll: 2 * time.Millisecond, HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Register(TaskSweepGroup, echoRunner)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	res := <-resCh
	if res.err != nil {
		t.Fatalf("plan: %v", res.err)
	}
	checkResults(t, tasks, res.results)
	if _, msg, ok, err := st.TaskResult(killed.ID); err != nil || !ok || msg != "" {
		t.Fatalf("killed task %s not completed: ok=%v msg=%q err=%v", killed.ID, ok, msg, err)
	}
	if claimed, done, failed := b.Stats(); claimed != int64(len(tasks)) || done != int64(len(tasks)) || failed != 0 {
		t.Fatalf("worker b stats claimed=%d done=%d failed=%d, want %d/%d/0", claimed, done, failed, len(tasks), len(tasks))
	}
	if aClaimed, aDone, _ := a.Stats(); aClaimed != 1 || aDone != 0 {
		t.Fatalf("killed worker stats claimed=%d done=%d, want 1/0", aClaimed, aDone)
	}
}

// TestFaultCorruptHeartbeat corrupts a parked worker's heartbeat file:
// liveness is judged from parsed content, so the corruption alone makes
// the node dead and its lease reclaimable immediately — no TTL wait.
// The parked worker is then released and completes its task a second
// time, pinning duplicate execution: both completions write the same
// bytes.
func TestFaultCorruptHeartbeat(t *testing.T) {
	st := openStore(t)
	tasks := fakePlan(4)

	hook, started, release := blockFirstTask()
	// HeartbeatEvery is huge so the corrupted file is never rewritten
	// while the worker is parked.
	a, err := NewWorker(st, WorkerOptions{
		Node: "wa", Poll: 2 * time.Millisecond, HeartbeatEvery: time.Hour,
		Hooks: WorkerHooks{BeforeRun: hook},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Register(TaskSweepGroup, echoRunner)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	var releaseOnce sync.Once
	closeRelease := func() { releaseOnce.Do(func() { close(release) }) }
	defer func() { closeRelease(); a.Stop() }()

	c, err := NewCoordinator(st, CoordinatorOptions{
		Node: "coord", Workers: -1,
		Poll: 5 * time.Millisecond, LeaseTTL: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resCh := goRunPlan(ctx, c, tasks)

	parked := <-started
	hb := filepath.Join(st.Root(), "nodes", "wa.json")
	if err := os.WriteFile(hb, []byte("}}corrupt beat{{"), 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := NewWorker(st, WorkerOptions{
		Node: "wb", Poll: 2 * time.Millisecond, HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Register(TaskSweepGroup, echoRunner)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	res := <-resCh
	if res.err != nil {
		t.Fatalf("plan: %v", res.err)
	}
	checkResults(t, tasks, res.results)
	first, msg, ok, err := st.TaskResult(parked.ID)
	if err != nil || !ok || msg != "" {
		t.Fatalf("reclaimed task %s not completed: ok=%v msg=%q err=%v", parked.ID, ok, msg, err)
	}

	// Release the parked worker: it still holds a stale view of the task
	// and runs it again. Deterministic runners make that harmless — the
	// second completion must overwrite like with like.
	closeRelease()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, done, _ := a.Stats(); done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("parked worker never finished its duplicate run")
		}
		time.Sleep(2 * time.Millisecond)
	}
	second, msg, ok, err := st.TaskResult(parked.ID)
	if err != nil || !ok || msg != "" {
		t.Fatalf("done file unreadable after duplicate completion: ok=%v msg=%q err=%v", ok, msg, err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("duplicate execution changed the done bytes")
	}
}

// TestFaultCoordinatorRestart crashes the coordinator after only part
// of the plan has run. A fresh coordinator re-derives the same
// content-addressed task ids from the same input, finds the finished
// tasks' done files, and only the remainder executes — each task runs
// exactly once across both incarnations.
func TestFaultCoordinatorRestart(t *testing.T) {
	st := openStore(t)
	tasks := fakePlan(4)

	w, err := NewWorker(st, WorkerOptions{
		Node: "w0", Poll: 2 * time.Millisecond, HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Register(TaskSweepGroup, echoRunner)
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// First incarnation: enqueue only half the plan, and "crash" (drop
	// the coordinator) once that half is done.
	c1, err := NewCoordinator(st, CoordinatorOptions{
		Node: "coord1", Workers: -1,
		Poll: 5 * time.Millisecond, LeaseTTL: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := runPlan(ctx, c1, tasks[:len(tasks)/2]); err != nil {
		t.Fatalf("first incarnation: %v", err)
	}
	c1.Close()

	// Second incarnation: the full plan over the same content. The two
	// finished tasks resolve from their done files without re-running.
	c2, err := NewCoordinator(st, CoordinatorOptions{
		Node: "coord2", Workers: -1,
		Poll: 5 * time.Millisecond, LeaseTTL: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	results, err := runPlan(ctx, c2, fakePlan(len(tasks)))
	if err != nil {
		t.Fatalf("resumed plan: %v", err)
	}
	checkResults(t, tasks, results)
	n := int64(len(tasks))
	if claimed, done, failed := w.Stats(); claimed != n || done != n || failed != 0 {
		t.Fatalf("worker stats claimed=%d done=%d failed=%d, want each task run exactly once (%d)", claimed, done, failed, n)
	}
	// Complete writes a task's done file before it removes the claim
	// file, so the plan can resolve while a worker is between the two
	// steps; wait, within a deadline, for the queue to settle.
	p, c, d := st.QueueStats()
	for deadline := time.Now().Add(10 * time.Second); (p != 0 || c != 0 || d != len(tasks)) && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		p, c, d = st.QueueStats()
	}
	if p != 0 || c != 0 || d != len(tasks) {
		t.Fatalf("queue pending=%d claimed=%d done=%d, want 0/0/%d", p, c, d, len(tasks))
	}
}
