package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

// The cluster package only routes task kinds; the server registers the
// runner that computes. Protocol tests route their own payload under the
// one kind: echoRunner, whose result — like every real runner's — is a
// pure function of the task's content, so a duplicate execution writes
// the same done bytes and every result can be checked against the
// runner's output computed in-process.
func echoRunner(_ context.Context, _ *Store, t *Task) ([]byte, error) {
	sum := sha256.Sum256(append([]byte(t.Digest+"|"), t.Spec...))
	return []byte(hex.EncodeToString(sum[:])), nil
}

func openStore(t *testing.T) *Store {
	t.Helper()
	st, err := Open(filepath.Join(t.TempDir(), "cluster"))
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return st
}

// fakeTask builds a claimable task for protocol tests; distinct i give
// distinct content-derived ids.
func fakeTask(i int) Task {
	sum := sha256.Sum256([]byte(fmt.Sprintf("fake-%d", i)))
	return NewSweepGroupTask(json.RawMessage(strconv.Itoa(i)), hex.EncodeToString(sum[:]))
}

// fakePlan is n tasks, the shape of a delegated plan's groups.
func fakePlan(n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = fakeTask(i)
	}
	return tasks
}

// runPlan enqueues tasks and awaits them through c, returning the
// results in task order — what the server's delegation does with a plan.
func runPlan(ctx context.Context, c *Coordinator, tasks []Task) ([][]byte, error) {
	ids := make([]string, len(tasks))
	for i, tk := range tasks {
		if err := c.Store().Enqueue(tk); err != nil {
			return nil, err
		}
		ids[i] = tk.ID
	}
	return c.AwaitFunc(ctx, ids, nil)
}

// checkResults fails unless every result equals echoRunner's output for
// its task, computed in-process.
func checkResults(t *testing.T, tasks []Task, got [][]byte) {
	t.Helper()
	if len(got) != len(tasks) {
		t.Fatalf("got %d results, want %d", len(got), len(tasks))
	}
	for i := range tasks {
		want, _ := echoRunner(context.Background(), nil, &tasks[i])
		if !bytes.Equal(got[i], want) {
			t.Fatalf("task %d result %q, want the in-process runner output %q", i, got[i], want)
		}
	}
}

func TestClaimExactlyOnce(t *testing.T) {
	st := openStore(t)
	const tasks = 24
	for i := 0; i < tasks; i++ {
		if err := st.Enqueue(fakeTask(i)); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	// Competing claimers must partition the queue: every task claimed by
	// exactly one node, no task claimed twice, none lost.
	var mu sync.Mutex
	got := make(map[string]int)
	var wg sync.WaitGroup
	for n := 0; n < 4; n++ {
		node := fmt.Sprintf("node%d", n)
		if err := st.WriteHeartbeat(Heartbeat{Node: node, Role: "worker", Time: time.Now().UTC()}); err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				task, err := st.Claim(node)
				if err != nil {
					t.Errorf("claim: %v", err)
					return
				}
				if task == nil {
					return
				}
				mu.Lock()
				got[task.ID]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(got) != tasks {
		t.Fatalf("claimed %d distinct tasks, want %d", len(got), tasks)
	}
	for id, n := range got {
		if n != 1 {
			t.Errorf("task %s claimed %d times", id, n)
		}
	}
}

func TestEnqueueIdempotent(t *testing.T) {
	st := openStore(t)
	task := fakeTask(0)
	for i := 0; i < 3; i++ {
		if err := st.Enqueue(task); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	if p, c, d := st.QueueStats(); p != 1 || c != 0 || d != 0 {
		t.Fatalf("after re-enqueue: pending=%d claimed=%d done=%d, want 1/0/0", p, c, d)
	}
	claimed, err := st.Claim("node0")
	if err != nil || claimed == nil {
		t.Fatalf("claim: %v, task=%v", err, claimed)
	}
	// Claimed tasks must not be re-enqueued — that would run them twice
	// concurrently for no reason.
	if err := st.Enqueue(task); err != nil {
		t.Fatalf("enqueue claimed: %v", err)
	}
	if p, c, _ := st.QueueStats(); p != 0 || c != 1 {
		t.Fatalf("after enqueue of claimed: pending=%d claimed=%d, want 0/1", p, c)
	}
	if err := st.Complete(claimed, []byte("r"), ""); err != nil {
		t.Fatalf("complete: %v", err)
	}
	// Done tasks must not be re-enqueued either — their result is final.
	if err := st.Enqueue(task); err != nil {
		t.Fatalf("enqueue done: %v", err)
	}
	if p, c, d := st.QueueStats(); p != 0 || c != 0 || d != 1 {
		t.Fatalf("after enqueue of done: pending=%d claimed=%d done=%d, want 0/0/1", p, c, d)
	}
	body, msg, ok, err := st.TaskResult(task.ID)
	if err != nil || !ok || msg != "" || string(body) != "r" {
		t.Fatalf("TaskResult = %q, %q, %v, %v", body, msg, ok, err)
	}
}

func TestReclaimExpired(t *testing.T) {
	st := openStore(t)
	now := time.Now().UTC()
	ttl := time.Second

	// ghost claimed a task and never heartbeat: reclaimed.
	if err := st.Enqueue(fakeTask(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Claim("ghost"); err != nil {
		t.Fatal(err)
	}
	n, err := st.ReclaimExpired(ttl, now)
	if err != nil || n != 1 {
		t.Fatalf("reclaim from heartbeat-less node: n=%d err=%v, want 1", n, err)
	}
	if p, c, _ := st.QueueStats(); p != 1 || c != 0 {
		t.Fatalf("after reclaim: pending=%d claimed=%d, want 1/0", p, c)
	}

	// live claimed a task and has a fresh heartbeat: kept.
	if err := st.WriteHeartbeat(Heartbeat{Node: "live", Role: "worker", Time: now}); err != nil {
		t.Fatal(err)
	}
	task, err := st.Claim("live")
	if err != nil || task == nil {
		t.Fatalf("claim: %v", err)
	}
	if n, _ := st.ReclaimExpired(ttl, now); n != 0 {
		t.Fatalf("reclaimed %d leases from a live node, want 0", n)
	}

	// The heartbeat goes stale: reclaimed.
	if n, _ := st.ReclaimExpired(ttl, now.Add(2*ttl)); n != 1 {
		t.Fatalf("stale heartbeat not reclaimed")
	}

	// A corrupt heartbeat reads as dead regardless of freshness — the
	// liveness judgment is over parsed content, never file mtime.
	if _, err := st.Claim("live"); err != nil {
		t.Fatal(err)
	}
	hbPath := filepath.Join(st.Root(), "nodes", "live.json")
	if err := os.WriteFile(hbPath, []byte("{{{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, _ := st.ReclaimExpired(ttl, now); n != 1 {
		t.Fatalf("corrupt heartbeat not treated as dead")
	}

	// A dead owner whose task is already done: the claim file is garbage
	// collected, nothing re-runs.
	task2 := fakeTask(1)
	if err := st.Enqueue(task2); err != nil {
		t.Fatal(err)
	}
	claimed2, err := st.Claim("ghost")
	if err != nil || claimed2 == nil {
		t.Fatal(err)
	}
	if err := st.Complete(&Task{ID: claimed2.ID}, []byte("r"), ""); err != nil {
		t.Fatal(err)
	}
	// Completing via a bare task (no owner) leaves ghost's claim file in
	// place — exactly the crash-after-complete shape.
	if n, _ := st.ReclaimExpired(ttl, now); n != 0 {
		t.Fatalf("re-ran an already-done task")
	}
	// All claims are resolved now: the done task's claim file was garbage
	// collected, and fakeTask(0) went back to pending when its owner's
	// heartbeat was corrupted above.
	if p, c, d := st.QueueStats(); p != 1 || c != 0 || d != 1 {
		t.Fatalf("pending=%d claimed=%d done=%d, want 1/0/1", p, c, d)
	}
}

func TestCASAndResultCache(t *testing.T) {
	st := openStore(t)
	d1, err := st.PutBytes([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := st.PutBytes([]byte("hello"))
	if err != nil || d2 != d1 {
		t.Fatalf("identical content got digests %s vs %s", d1, d2)
	}
	if !st.HasBlob(d1) {
		t.Fatal("blob missing after PutBytes")
	}
	body, err := os.ReadFile(st.CASPath(d1))
	if err != nil || string(body) != "hello" {
		t.Fatalf("CAS blob = %q, %v", body, err)
	}
	f := filepath.Join(t.TempDir(), "u.csv")
	if err := os.WriteFile(f, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	d3, err := st.PutFile(f)
	if err != nil || d3 != d1 {
		t.Fatalf("PutFile digest %s, want %s (%v)", d3, d1, err)
	}

	if _, ok := st.CachedResult("key1"); ok {
		t.Fatal("cache hit before put")
	}
	if err := st.PutCachedResult("key1", []byte("result")); err != nil {
		t.Fatal(err)
	}
	got, ok := st.CachedResult("key1")
	if !ok || string(got) != "result" {
		t.Fatalf("CachedResult = %q, %v", got, ok)
	}
}
