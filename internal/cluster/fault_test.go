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

	"randpriv/internal/stream"
)

// The fault harness: every failure mode below must converge to the same
// golden bytes the single-process serial accumulate produces. The hooks
// let a test hold a worker mid-shard — after the claim, before the
// runner — which is exactly where a real crash loses work.

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

type sketchResult struct {
	mo  *stream.Moments
	err error
}

// TestFaultKillWorkerMidShard kills a worker between claiming a shard
// and sketching it. The lease sits on a dead node until the
// coordinator's wait loop expires it; a second worker picks the shard
// up and the merged sketch is still bit-identical to the serial one.
func TestFaultKillWorkerMidShard(t *testing.T) {
	st := openStore(t)
	path := filepath.Join(t.TempDir(), "data.f64")
	writeTestSpool(t, path, 240, 4, 11)
	const chunk, shards = 8, 4
	want := serialSketchBytes(t, path, chunk)

	hook, started, release := blockFirstTask()
	a, err := NewWorker(st, WorkerOptions{
		Node: "wa", Poll: 2 * time.Millisecond, HeartbeatEvery: 10 * time.Millisecond,
		Hooks: WorkerHooks{BeforeRun: hook},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Register(TaskSketch, SketchShardRunner)
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
	resCh := make(chan sketchResult, 1)
	go func() {
		mo, err := c.ShardedSketch(ctx, path, chunk, shards)
		resCh <- sketchResult{mo, err}
	}()

	// Worker A claims its first shard and parks in the hook. Kill it
	// there — the lease is now held by a dead node — then let the blocked
	// goroutine observe the kill and abandon the task.
	killed := <-started
	a.Kill()
	close(release)

	// Worker B arrives after the crash and must finish everything,
	// including the abandoned shard once its lease expires.
	b, err := NewWorker(st, WorkerOptions{
		Node: "wb", Poll: 2 * time.Millisecond, HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Register(TaskSketch, SketchShardRunner)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	res := <-resCh
	if res.err != nil {
		t.Fatalf("ShardedSketch: %v", res.err)
	}
	if !bytes.Equal(sketchBits(t, res.mo), want) {
		t.Fatalf("post-crash sketch differs from serial accumulate")
	}
	if _, msg, ok, err := st.TaskResult(killed.ID); err != nil || !ok || msg != "" {
		t.Fatalf("killed shard %s not completed: ok=%v msg=%q err=%v", killed.ID, ok, msg, err)
	}
	if claimed, done, failed := b.Stats(); claimed != shards || done != shards || failed != 0 {
		t.Fatalf("worker b stats claimed=%d done=%d failed=%d, want %d/%d/0", claimed, done, failed, shards, shards)
	}
	if aClaimed, aDone, _ := a.Stats(); aClaimed != 1 || aDone != 0 {
		t.Fatalf("killed worker stats claimed=%d done=%d, want 1/0", aClaimed, aDone)
	}
}

// TestFaultCorruptHeartbeat corrupts a parked worker's heartbeat file:
// liveness is judged from parsed content, so the corruption alone makes
// the node dead and its lease reclaimable immediately — no TTL wait.
// The parked worker is then released and completes its shard a second
// time, pinning duplicate execution: both completions write the same
// bytes.
func TestFaultCorruptHeartbeat(t *testing.T) {
	st := openStore(t)
	path := filepath.Join(t.TempDir(), "data.f64")
	writeTestSpool(t, path, 240, 4, 12)
	const chunk, shards = 8, 4
	want := serialSketchBytes(t, path, chunk)

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
	a.Register(TaskSketch, SketchShardRunner)
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
	resCh := make(chan sketchResult, 1)
	go func() {
		mo, err := c.ShardedSketch(ctx, path, chunk, shards)
		resCh <- sketchResult{mo, err}
	}()

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
	b.Register(TaskSketch, SketchShardRunner)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	res := <-resCh
	if res.err != nil {
		t.Fatalf("ShardedSketch: %v", res.err)
	}
	if !bytes.Equal(sketchBits(t, res.mo), want) {
		t.Fatalf("post-corruption sketch differs from serial accumulate")
	}
	first, msg, ok, err := st.TaskResult(parked.ID)
	if err != nil || !ok || msg != "" {
		t.Fatalf("reclaimed shard %s not completed: ok=%v msg=%q err=%v", parked.ID, ok, msg, err)
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
// shards' done files, and only the remainder executes — each shard runs
// exactly once across both incarnations.
func TestFaultCoordinatorRestart(t *testing.T) {
	st := openStore(t)
	path := filepath.Join(t.TempDir(), "data.f64")
	writeTestSpool(t, path, 320, 5, 13)
	const chunk, shards = 8, 4
	want := serialSketchBytes(t, path, chunk)

	w, err := NewWorker(st, WorkerOptions{
		Node: "w0", Poll: 2 * time.Millisecond, HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Register(TaskSketch, SketchShardRunner)
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// First incarnation: shard the file, enqueue only half the plan, and
	// "crash" (drop the coordinator) once that half is done.
	digests, err := st.SplitSpoolShards(path, chunk, shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != shards {
		t.Fatalf("split produced %d shards, want %d", len(digests), shards)
	}
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
	var half []string
	for i, d := range digests[:shards/2] {
		task := NewSketchTask(d, chunk, i)
		if err := st.Enqueue(task); err != nil {
			t.Fatal(err)
		}
		half = append(half, task.ID)
	}
	if _, err := c1.Await(ctx, half); err != nil {
		t.Fatalf("first incarnation: %v", err)
	}
	c1.Close()

	// Second incarnation: the full plan over the same bytes. The two
	// finished shards resolve from their done files without re-running.
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
	mo, err := c2.ShardedSketch(ctx, path, chunk, shards)
	if err != nil {
		t.Fatalf("resumed ShardedSketch: %v", err)
	}
	if !bytes.Equal(sketchBits(t, mo), want) {
		t.Fatalf("resumed sketch differs from serial accumulate")
	}
	if claimed, done, failed := w.Stats(); claimed != shards || done != shards || failed != 0 {
		t.Fatalf("worker stats claimed=%d done=%d failed=%d, want each shard run exactly once (%d)", claimed, done, failed, shards)
	}
	// Complete writes a task's done file before it removes the claim
	// file, so ShardedSketch can return while a worker is between the
	// two steps; wait, within a deadline, for the queue to settle.
	p, c, d := st.QueueStats()
	for deadline := time.Now().Add(10 * time.Second); (p != 0 || c != 0 || d != shards) && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		p, c, d = st.QueueStats()
	}
	if p != 0 || c != 0 || d != shards {
		t.Fatalf("queue pending=%d claimed=%d done=%d, want 0/0/%d", p, c, d, shards)
	}
}
