package cluster

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// wipeDone clears the done directory so a repeated sketch actually
// re-executes instead of resolving from its cached done files.
func wipeDone(tb testing.TB, st *Store) {
	tb.Helper()
	dir := filepath.Join(st.Root(), "tasks", "done")
	if err := os.RemoveAll(dir); err != nil {
		tb.Fatalf("wipe done dir: %v", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		tb.Fatalf("recreate done dir: %v", err)
	}
}

// BenchmarkShardedSketch measures one full distributed sketch round
// trip — split, enqueue, execute, merge — over a coordinator with
// embedded workers. bench_gate.py tracks it via scripts/bench.sh.
func BenchmarkShardedSketch(b *testing.B) {
	st, err := Open(filepath.Join(b.TempDir(), "cluster"))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "data.f64")
	writeTestSpool(b, path, 4000, 8, 99)
	const chunk, shards = 64, 4
	c, err := NewCoordinator(st, CoordinatorOptions{
		Node: "coord", Workers: 2,
		Poll: time.Millisecond, HeartbeatEvery: 50 * time.Millisecond,
		LeaseTTL: 5 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wipeDone(b, st)
		b.StartTimer()
		if _, err := c.ShardedSketch(ctx, path, chunk, shards); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWorkerScalingThroughput is the tentpole's load test: the same
// sharded sketch workload against 1 and then 4 worker instances over
// their own state dirs. Byte-identity against the serial golden is
// asserted unconditionally; the ≥1.8× throughput claim only where 4
// workers can actually run in parallel.
func TestWorkerScalingThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "data.f64")
	const rows, cols, chunk, shards, iters = 20000, 12, 250, 8, 3
	writeTestSpool(t, path, rows, cols, 7)
	want := serialSketchBytes(t, path, chunk)

	run := func(nWorkers int) (time.Duration, []byte) {
		st, err := Open(filepath.Join(t.TempDir(), fmt.Sprintf("cluster-%dw", nWorkers)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nWorkers; i++ {
			w, err := NewWorker(st, WorkerOptions{
				Node: fmt.Sprintf("w%d", i), Poll: time.Millisecond,
				HeartbeatEvery: 50 * time.Millisecond,
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
			Node: "coord", Workers: -1,
			Poll: time.Millisecond, LeaseTTL: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		// Warm the CAS (split cost is identical either way) so the timed
		// region measures task execution throughput.
		if _, err := st.SplitSpoolShards(path, chunk, shards); err != nil {
			t.Fatal(err)
		}
		var bits []byte
		start := time.Now()
		for i := 0; i < iters; i++ {
			wipeDone(t, st)
			mo, err := c.ShardedSketch(ctx, path, chunk, shards)
			if err != nil {
				t.Fatalf("%d workers: %v", nWorkers, err)
			}
			bits = sketchBits(t, mo)
		}
		return time.Since(start), bits
	}

	d1, bits1 := run(1)
	d4, bits4 := run(4)
	if !bytes.Equal(bits1, want) || !bytes.Equal(bits4, want) {
		t.Fatalf("scaling changed the sketch bytes (1w match=%v, 4w match=%v)", bytes.Equal(bits1, want), bytes.Equal(bits4, want))
	}
	speedup := float64(d1) / float64(d4)
	t.Logf("1 worker: %v, 4 workers: %v, speedup %.2fx (NumCPU=%d)", d1, d4, speedup, runtime.NumCPU())
	if runtime.NumCPU() < 4 {
		t.Skipf("speedup assertion needs >= 4 CPUs, have %d (byte-identity asserted above)", runtime.NumCPU())
	}
	if speedup < 1.8 {
		t.Fatalf("1->4 worker speedup %.2fx, want >= 1.8x", speedup)
	}
}
