package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"randpriv/internal/dataset"
	"randpriv/internal/mat"
	"randpriv/internal/stream"
)

// writeTestSpool writes a deterministic rows×cols float64 spool of
// mixed-scale values (plenty of bits below the decimal point, so
// byte-identity failures cannot hide behind round numbers).
func writeTestSpool(t testing.TB, path string, rows, cols int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := mat.Zeros(rows, cols)
	for i := range data.Raw() {
		data.Raw()[i] = (rng.NormFloat64() + 2) * float64(1+rng.Intn(500))
	}
	writeSpoolFile(t, path, data)
}

// writeSpoolFile writes data as a float64 spool at path.
func writeSpoolFile(t testing.TB, path string, data *mat.Dense) {
	t.Helper()
	var buf bytes.Buffer
	sw, err := dataset.NewSpoolWriter(&buf, data.Cols())
	if err == nil {
		err = sw.Append(data)
	}
	if err == nil {
		err = sw.Flush()
	}
	if err == nil {
		err = os.WriteFile(path, buf.Bytes(), 0o644)
	}
	if err != nil {
		t.Fatalf("write test spool: %v", err)
	}
}

// serialSketchBytes is the golden: the single-process serial accumulate
// over the same chunk partition, as raw sketch bytes.
func serialSketchBytes(t *testing.T, path string, chunk int) []byte {
	t.Helper()
	mo := serialSketch(t, path, chunk)
	b, err := mo.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal serial sketch: %v", err)
	}
	return b
}

func serialSketch(t *testing.T, path string, chunk int) *stream.Moments {
	t.Helper()
	src, err := dataset.OpenSpool(path, chunk)
	if err != nil {
		t.Fatalf("open spool: %v", err)
	}
	defer src.Close()
	mo, err := stream.Accumulate(src, 1)
	if err != nil {
		t.Fatalf("serial sketch: %v", err)
	}
	return mo
}

func sketchBits(t *testing.T, mo *stream.Moments) []byte {
	t.Helper()
	b, err := mo.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal sketch: %v", err)
	}
	return b
}

func openStore(t *testing.T) *Store {
	t.Helper()
	st, err := Open(filepath.Join(t.TempDir(), "cluster"))
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return st
}

// fakeTask builds a claimable (but never runnable) task for protocol
// tests.
func fakeTask(i int) Task {
	sum := sha256.Sum256([]byte(fmt.Sprintf("fake-%d", i)))
	d := hex.EncodeToString(sum[:])
	return NewSketchTask(d, 8, i)
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

// TestSplitDeclines pins the spool splitter's refusals: input it cannot
// cut into whole rows is an error, and the caller falls back to the
// serial sketch.
func TestSplitDeclines(t *testing.T) {
	st := openStore(t)
	dir := t.TempDir()
	header := dataset.SpoolHeader(2)
	cases := map[string][]byte{
		"no data rows":      header,
		"partial row":       append(append([]byte{}, header...), make([]byte, 24)...),
		"truncated header":  header[:10],
		"not a spool":       []byte("a,b\n1,2\n3,4\n"),
		"zero-column spool": dataset.SpoolHeader(0),
	}
	for name, content := range cases {
		p := filepath.Join(dir, strings.ReplaceAll(name, " ", "_")+".f64")
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.SplitSpoolShards(p, 2, 2); err == nil {
			t.Errorf("%s: split succeeded, want refusal", name)
		}
	}
}

// TestSplitSpoolShardsAtRowOffsets pins the cut itself: every shard is a
// spool of its own holding a chunk-multiple run of rows, and the shards
// concatenate back to the original rows, bit for bit.
func TestSplitSpoolShardsAtRowOffsets(t *testing.T) {
	st := openStore(t)
	path := filepath.Join(t.TempDir(), "data.f64")
	writeTestSpool(t, path, 23, 3, 5)
	const chunk = 4
	digests, err := st.SplitSpoolShards(path, chunk, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != 3 {
		t.Fatalf("got %d shards, want 3", len(digests))
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []byte
	for i, d := range digests {
		b, err := os.ReadFile(st.CASPath(d))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b[:dataset.SpoolHeaderSize], whole[:dataset.SpoolHeaderSize]) {
			t.Fatalf("shard %d header differs from the spool's", i)
		}
		n := (len(b) - dataset.SpoolHeaderSize) / (3 * 8)
		if i < len(digests)-1 && n%chunk != 0 {
			t.Errorf("shard %d holds %d rows, not a multiple of the %d-row chunk", i, n, chunk)
		}
		rows = append(rows, b[dataset.SpoolHeaderSize:]...)
	}
	if !bytes.Equal(rows, whole[dataset.SpoolHeaderSize:]) {
		t.Fatal("shards do not concatenate back to the spool's rows")
	}
}

// TestShardedSketchByteIdentical is the tentpole's core claim at the
// cluster level: distributing the sketch across shard tasks produces
// bit-identical moments to the single-process serial accumulate, across
// awkward shapes (rows not a chunk multiple, single-row chunks, more
// shards than chunks, one shard total).
func TestShardedSketchByteIdentical(t *testing.T) {
	cases := []struct {
		name                      string
		rows, cols, chunk, shards int
		workers                   int
	}{
		{"typical", 257, 5, 32, 4, 1},
		{"single-row chunks", 41, 3, 1, 4, 1},
		{"more shards than chunks", 5, 2, 2, 10, 1},
		{"one shard", 64, 4, 16, 1, 1},
		{"chunk larger than data", 7, 3, 100, 3, 1},
		{"two embedded workers", 300, 6, 17, 6, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := openStore(t)
			path := filepath.Join(t.TempDir(), "data.f64")
			writeTestSpool(t, path, tc.rows, tc.cols, 42)
			want := serialSketchBytes(t, path, tc.chunk)

			c, err := NewCoordinator(st, CoordinatorOptions{
				Node: "coord", Workers: tc.workers,
				Poll: 2 * time.Millisecond, HeartbeatEvery: 20 * time.Millisecond,
				LeaseTTL: 2 * time.Second,
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
			mo, err := c.ShardedSketch(ctx, path, tc.chunk, tc.shards)
			if err != nil {
				t.Fatalf("ShardedSketch: %v", err)
			}
			if !bytes.Equal(sketchBits(t, mo), want) {
				t.Fatalf("sharded sketch differs from serial accumulate")
			}
		})
	}
}

// TestShardedSketchExternalWorkers runs a pure coordinator (no embedded
// claim loops) against separate worker instances over the same state
// dir — the same claim/heartbeat/done protocol separate OS processes
// speak, exercised in-process so the test stays hermetic.
func TestShardedSketchExternalWorkers(t *testing.T) {
	st := openStore(t)
	path := filepath.Join(t.TempDir(), "data.f64")
	writeTestSpool(t, path, 500, 6, 7)
	const chunk = 16
	want := serialSketchBytes(t, path, chunk)

	for i := 0; i < 3; i++ {
		w, err := NewWorker(st, WorkerOptions{
			Node: fmt.Sprintf("ext%d", i), Poll: 2 * time.Millisecond,
			HeartbeatEvery: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Register(TaskSketch, SketchShardRunner)
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
	}
	c, err := NewCoordinator(st, CoordinatorOptions{
		Node: "coord", Workers: -1, Poll: 2 * time.Millisecond, LeaseTTL: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.AliveWorkers(time.Now().UTC()); got != 3 {
		t.Fatalf("AliveWorkers = %d, want 3", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	mo, err := c.ShardedSketch(ctx, path, chunk, 6)
	if err != nil {
		t.Fatalf("ShardedSketch: %v", err)
	}
	if !bytes.Equal(sketchBits(t, mo), want) {
		t.Fatalf("sharded sketch differs from serial accumulate")
	}
}

// TestSketchRunnerReportsBadData pins the failure path: a shard with a
// non-finite value fails its task terminally, and ShardedSketch
// surfaces the error (the server's caller then falls back to the serial
// sketch, which reproduces the serial path's exact message).
func TestSketchRunnerReportsBadData(t *testing.T) {
	st := openStore(t)
	path := filepath.Join(t.TempDir(), "bad.f64")
	writeSpoolFile(t, path, mat.NewFromRows([][]float64{{1, 2}, {3, math.NaN()}, {5, 6}, {7, 8}}))
	c, err := NewCoordinator(st, CoordinatorOptions{
		Node: "coord", Workers: 1, Poll: 2 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond, LeaseTTL: 2 * time.Second,
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
	if _, err := c.ShardedSketch(ctx, path, 2, 2); err == nil {
		t.Fatal("ShardedSketch succeeded over non-finite data, want error")
	}
}
