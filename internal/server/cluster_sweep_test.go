// Delegated-sweep tests: a multipart sweep partitioned at
// perturbation-group boundaries and executed by cluster workers must
// produce the byte-identical full-grid result of a single process — on
// happy paths, under worker crashes mid-group, and across a coordinator
// restart. The scaling test pins that delegation actually buys
// wall-clock on multi-core boxes.

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"randpriv/internal/cluster"
)

// sweep16Spec expands to 16 grid points in 16 perturbation groups —
// every (scheme, sigma, seed) triple is a distinct disguise pass, so
// the plan has maximal group-level parallelism.
const sweep16Spec = `{"defenses":[{"scheme":"additive","sigmas":[3,4,5,6]},{"scheme":"correlated","sigmas":[3,4,5,6]}],"seeds":[2,7],"chunk":32,"stream":true}`

// goldenSweepBytes runs spec on a fresh single-process server and
// returns the stored result bytes — the reference every cluster
// topology is held to.
func goldenSweepBytes(t *testing.T, spec string, in []byte) []byte {
	t.Helper()
	_, plain := newTestServer(t, Config{JobWorkers: 2})
	js, _ := runSweep(t, plain, spec, in)
	status, body := getResult(t, plain, js.ID)
	if status != http.StatusOK {
		t.Fatalf("single-process golden result = %d", status)
	}
	return body
}

// externalWorker attaches a worker-role claim loop to dir, backed by
// its own server.Server for compute — the in-test stand-in for a
// separate `randprivd -role worker` process.
func externalWorker(t *testing.T, dir, node string, hooks cluster.WorkerHooks) *cluster.Worker {
	t.Helper()
	return externalWorkerFS(t, dir, node, hooks, nil)
}

// TestClusterSweepDelegationByteIdentity is the tentpole contract: a
// 16-point sweep delegated across two external worker processes (the
// coordinator embeds no claim loops of its own) stores the exact bytes
// the single process stores, and both workers demonstrably executed
// groups.
func TestClusterSweepDelegationByteIdentity(t *testing.T) {
	in := testCSV(t, 240, 4, 2, 9)
	want := goldenSweepBytes(t, sweep16Spec, in)

	dir := t.TempDir()
	wa := externalWorker(t, dir, "ext-a", cluster.WorkerHooks{})
	wb := externalWorker(t, dir, "ext-b", cluster.WorkerHooks{})

	_, ts := newTestServer(t, Config{
		ClusterDir: dir, NodeID: "coord", ClusterWorkers: -1, JobWorkers: 1,
	})
	final, res := runSweep(t, ts, sweep16Spec, in)
	if len(res.Points) != 16 {
		t.Fatalf("delegated sweep points = %d, want 16", len(res.Points))
	}
	status, got := getResult(t, ts, final.ID)
	if status != http.StatusOK {
		t.Fatalf("delegated result = %d", status)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("delegated sweep differs from single-process golden:\ncluster: %s\nserial:  %s", got, want)
	}

	// Both worker processes must have carried groups — 16 groups over
	// two greedy claim loops cannot land on one side only.
	ca, _, fa := wa.Stats()
	cb, _, fb := wb.Stats()
	if ca == 0 || cb == 0 {
		t.Errorf("group tasks not spread across workers: ext-a claimed %d, ext-b claimed %d", ca, cb)
	}
	if fa != 0 || fb != 0 {
		t.Errorf("worker failures: ext-a %d, ext-b %d", fa, fb)
	}
	st, err := cluster.OpenStore(dir, cluster.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if kinds := st.QueueStatsByKind(); kinds[cluster.TaskSweepGroup].Done != 16 {
		t.Errorf("sweepgroup done = %d, want 16 (one task per perturbation group)", kinds[cluster.TaskSweepGroup].Done)
	}
}

// TestClusterSweepMatchesGolden runs the committed golden sweep cases
// through a cluster-mode node with embedded claim loops: the delegated
// path is held to the same fixed bytes as the serial one, memory and
// stream batteries, attack selections and utility probes included.
func TestClusterSweepMatchesGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{
		ClusterDir: t.TempDir(), NodeID: "gold", ClusterWorkers: 2, JobWorkers: 1,
	})
	in := goldenCSV(t)
	for _, tc := range sweepGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			_, res := runSweep(t, ts, tc.spec, in)
			if len(res.Points) != len(tc.goldens) {
				t.Fatalf("points = %d, want %d", len(res.Points), len(tc.goldens))
			}
			for i, golden := range tc.goldens {
				if res.Points[i].Error != "" {
					t.Errorf("point %d (%s): rejected: %s", i, golden, res.Points[i].Error)
					continue
				}
				got := append(append([]byte(nil), res.Points[i].Report...), '\n')
				checkGolden(t, golden, got)
			}
		})
	}
}

// TestClusterSweepWorkerKillMidGroup crashes a worker after it claims
// its first group task but before the runner executes. The abandoned
// lease expires, a second worker re-runs the group, and the merged
// full-grid result is still byte-identical to the single process.
func TestClusterSweepWorkerKillMidGroup(t *testing.T) {
	in := testCSV(t, 240, 4, 2, 9)
	want := goldenSweepBytes(t, sweep16Spec, in)

	dir := t.TempDir()
	started := make(chan cluster.Task, 1)
	release := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	wa := externalWorker(t, dir, "doomed", cluster.WorkerHooks{BeforeRun: func(task *cluster.Task) {
		if task.Type == cluster.TaskSweepGroup && first.CompareAndSwap(true, false) {
			started <- *task
			<-release
		}
	}})

	_, ts := newTestServer(t, Config{
		ClusterDir: dir, NodeID: "coord-kill", ClusterWorkers: -1, JobWorkers: 1,
		ClusterLeaseTTL: 300 * time.Millisecond,
	})
	status, _, out := postSweep(t, ts, "/v1/jobs", sweep16Spec, in)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d, body %s", status, out)
	}
	var js jobStatus
	if err := json.Unmarshal(out, &js); err != nil {
		t.Fatal(err)
	}

	// The doomed worker parks on its first claimed group. Kill it there
	// — the lease now belongs to a dead node — then release the blocked
	// goroutine so it observes the kill and abandons the task.
	killed := <-started
	wa.Kill()
	close(release)

	// The replacement worker finishes everything, including the
	// abandoned group once its lease expires.
	externalWorker(t, dir, "relief", cluster.WorkerHooks{})

	final := waitJob(t, ts, js.ID)
	if final.State != "done" {
		t.Fatalf("sweep after worker crash = %s (error %q), want done", final.State, final.Error)
	}
	rs, got := getResult(t, ts, js.ID)
	if rs != http.StatusOK {
		t.Fatalf("result = %d", rs)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("post-crash sweep differs from single-process golden")
	}
	st, err := cluster.OpenStore(dir, cluster.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, msg, ok, err := st.TaskResult(killed.ID); err != nil || !ok || msg != "" {
		t.Errorf("killed group %s not re-completed: ok=%v msg=%q err=%v", killed.ID, ok, msg, err)
	}
}

// TestClusterSweepCoordinatorRestart kills the coordinator process
// mid-sweep and restarts it over the same jobs and cluster directories.
// The re-planned job re-enqueues its groups idempotently — content-
// addressed task IDs make finished groups resolve instantly — and the
// final bytes match an uninterrupted single-process run.
func TestClusterSweepCoordinatorRestart(t *testing.T) {
	// Large enough (chunk 4) that the sweep is observably mid-flight.
	in := testCSV(t, 20000, 6, 2, 11)
	const spec = `{"defenses":[{"scheme":"additive","sigmas":[5,6]}],"seeds":[3],"chunk":4,"stream":true}`
	jobsDir := t.TempDir()
	clusterDir := t.TempDir()

	sA, tsA := newTestServer(t, Config{
		JobsDir: jobsDir, ClusterDir: clusterDir, NodeID: "c1", ClusterWorkers: 1, JobWorkers: 1,
	})
	status, _, out := postSweep(t, tsA, "/v1/jobs", spec, in)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d, body %s", status, out)
	}
	var js jobStatus
	if err := json.Unmarshal(out, &js); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		_, cur := getJob(t, tsA, js.ID)
		if cur.State == "running" {
			break
		}
		if cur.State == "done" || time.Now().After(deadline) {
			t.Fatalf("sweep reached %s before the kill; enlarge the input", cur.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	tsA.Close()
	sA.Close()

	_, tsB := newTestServer(t, Config{
		JobsDir: jobsDir, ClusterDir: clusterDir, NodeID: "c2", ClusterWorkers: 1, JobWorkers: 1,
		CacheEntries: -1,
	})
	final := waitJob(t, tsB, js.ID)
	if final.State != "done" {
		t.Fatalf("recovered sweep = %s (error %q), want done", final.State, final.Error)
	}
	rs, recovered := getResult(t, tsB, js.ID)
	if rs != http.StatusOK {
		t.Fatalf("recovered result = %d", rs)
	}
	want := goldenSweepBytes(t, spec, in)
	if !bytes.Equal(recovered, want) {
		t.Errorf("recovered delegated sweep differs from single-process golden")
	}
}

// TestClusterSweepScaling pins that group delegation converts workers
// into wall-clock: the same 16-group sweep with 4 embedded claim loops
// must run at least 1.8x faster than with 1. Needs real cores.
func TestClusterSweepScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("scaling needs >= 4 CPUs, have %d", runtime.NumCPU())
	}
	in := testCSV(t, 6000, 6, 2, 13)
	const spec = `{"defenses":[{"scheme":"additive","sigmas":[3,4,5,6]},{"scheme":"correlated","sigmas":[3,4,5,6]}],"seeds":[2,7],"chunk":64,"stream":true}`

	elapsed := make(map[int]time.Duration, 2)
	for _, workers := range []int{1, 4} {
		_, ts := newTestServer(t, Config{
			ClusterDir: t.TempDir(), NodeID: fmt.Sprintf("scale-%dw", workers),
			ClusterWorkers: workers, JobWorkers: 1,
		})
		start := time.Now()
		runSweep(t, ts, spec, in)
		elapsed[workers] = time.Since(start)
	}
	speedup := float64(elapsed[1]) / float64(elapsed[4])
	t.Logf("1 worker: %v, 4 workers: %v, speedup %.2fx", elapsed[1], elapsed[4], speedup)
	if speedup < 1.8 {
		t.Errorf("4-worker speedup = %.2fx, want >= 1.8x", speedup)
	}
}
