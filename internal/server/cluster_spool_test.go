// The cluster's data plane: the coordinator decodes a job's CSV once,
// into a float64 spool in the CAS, and every sweepgroup task reads that
// spool in place. These tests pin where the spool lives, that it is
// written once per upload, and that every way it can fail — the commit,
// a worker's read, a spool gone or torn after enqueue — ends the job in
// the single-process bytes.

package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"randpriv/internal/cluster"
	"randpriv/internal/dataset"
	"randpriv/internal/faultfs"
	"randpriv/internal/stream"
	"randpriv/internal/sweep"
)

// casSpool is where the cluster dir holds the spool of the upload in.
func casSpool(dir string, in []byte) string {
	sum := sha256.Sum256(in)
	return filepath.Join(dir, "cas", hex.EncodeToString(sum[:])+".f64")
}

// waitJobWithin polls a job until it finishes, failing the test if that
// takes longer than d.
func waitJobWithin(t *testing.T, ts *httptest.Server, id string, d time.Duration) jobStatus {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		_, js := getJob(t, ts, id)
		switch js.State {
		case "done", "failed", "canceled":
			return js
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, js.State, d)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// jobBytes waits for a job and returns its stored result, failing the
// test unless it ends done.
func jobBytes(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	if final := waitJob(t, ts, id); final.State != "done" {
		t.Fatalf("job %s = %s (error %q), want done", id, final.State, final.Error)
	}
	status, body := getResult(t, ts, id)
	if status != http.StatusOK {
		t.Fatalf("job %s result status %d", id, status)
	}
	return body
}

// TestClusterSweepSpoolInCAS: a delegated sweep leaves the CAS holding
// the upload's float64 spool under <digest>.f64 — the validated spool a
// single process would write, byte for byte — and no CSV blob, and a
// second delegated sweep of the same upload reads that spool without
// rewriting it.
func TestClusterSweepSpoolInCAS(t *testing.T) {
	in := testCSV(t, 240, 4, 2, 9)
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{ClusterDir: dir, NodeID: "cas", ClusterWorkers: 1, JobWorkers: 1})
	const first = `{"defenses":[{"scheme":"additive","sigmas":[3,5]}],"seeds":[2],"chunk":32,"stream":true}`
	const second = `{"defenses":[{"scheme":"additive","sigmas":[3,5]}],"seeds":[4],"chunk":32,"stream":true}`
	runSweep(t, ts, first, in)

	spool := casSpool(dir, in)
	entries, err := os.ReadDir(filepath.Join(dir, "cas"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(spool) {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("cas holds %v, want only %s", names, filepath.Base(spool))
	}
	got, err := os.ReadFile(spool)
	if err != nil {
		t.Fatal(err)
	}
	src, err := dataset.ReadCSVChunks(func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(in)), nil }, 32)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := dataset.WriteSpool(&want, len(src.Names()), func(sink stream.Sink) error {
		_, err := dataset.Validate(src, len(src.Names()), sink)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("cas spool (%d bytes) differs from the upload's validated spool (%d bytes)", len(got), want.Len())
	}

	before, err := os.Stat(spool)
	if err != nil {
		t.Fatal(err)
	}
	runSweep(t, ts, second, in)
	after, err := os.Stat(spool)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) {
		t.Error("the second sweep of the same upload rewrote its spool")
	}
	if done := s.cluster.Store().QueueStatsByKind()[cluster.TaskSweepGroup].Done; done != 4 {
		t.Errorf("sweepgroup tasks done = %d, want 4: a sweep was not delegated", done)
	}
}

// TestClusterNoLiveClaimLoopRunsLocally: a coordinator with no embedded
// claim loop and no worker must not enqueue work nothing will claim. A
// plain job and a sweep job both finish within a 10 s bound, on the
// local path, to the single-process bytes; no task is left in the
// queue; and each job fed the breaker one failure.
func TestClusterNoLiveClaimLoopRunsLocally(t *testing.T) {
	in := testCSV(t, 240, 4, 2, 9)
	const q = "?sigma=5&seed=3&chunk=32&stream=1"
	_, plain := newTestServer(t, Config{})
	status, _, wantJob := post(t, plain, "/v1/assess"+q, in)
	if status != http.StatusOK {
		t.Fatalf("single-process golden: status %d", status)
	}
	wantSweep := goldenSweepBytes(t, sweep16Spec, in)

	s, ts := newTestServer(t, Config{ClusterDir: t.TempDir(), NodeID: "lonely", ClusterWorkers: -1, JobWorkers: 1})
	status, _, out := postSweep(t, ts, "/v1/jobs", sweep16Spec, in)
	if status != http.StatusAccepted {
		t.Fatalf("sweep submit = %d, body %s", status, out)
	}
	var sweepJob jobStatus
	if err := json.Unmarshal(out, &sweepJob); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, id string
		want     []byte
	}{
		{"plain", submitJob(t, ts, q, in).ID, wantJob},
		{"sweep", sweepJob.ID, wantSweep},
	} {
		if final := waitJobWithin(t, ts, tc.id, 10*time.Second); final.State != "done" {
			t.Fatalf("%s job = %s (error %q), want done", tc.name, final.State, final.Error)
		}
		if rs, got := getResult(t, ts, tc.id); rs != http.StatusOK || !bytes.Equal(got, tc.want) {
			t.Errorf("%s job result (status %d) differs from the single-process bytes", tc.name, rs)
		}
	}
	if st := getClusterStatus(t, ts); st.TasksPending != 0 || st.TasksClaimed != 0 || st.TasksDone != 0 {
		t.Errorf("queue after two jobs: pending=%d claimed=%d done=%d, want no task", st.TasksPending, st.TasksClaimed, st.TasksDone)
	}
	// Two failures are on the breaker's count: one more trips it.
	s.breaker.Failure(time.Now())
	if trips := s.breaker.Trips(); trips != 1 {
		t.Errorf("breaker trips = %d after one more failure, want 1: the jobs did not feed it", trips)
	}
}

// TestChaosClusterSpoolCommitFaults: ENOSPC or EIO on every attempt of
// the coordinator's spool commit (the rename into cas/) is the cluster
// failing, so the breaker counts it, nothing lands in the CAS or the
// queue, and the job runs locally to the single-process bytes.
func TestChaosClusterSpoolCommitFaults(t *testing.T) {
	in := testCSV(t, 200, 3, 1, 4)
	const q = "?sigma=5&seed=2&chunk=32&stream=1"
	_, plain := newTestServer(t, Config{})
	status, _, want := post(t, plain, "/v1/assess"+q, in)
	if status != http.StatusOK {
		t.Fatalf("single-process golden: status %d", status)
	}
	for name, errno := range map[string]error{"ENOSPC": faultfs.ErrNoSpace, "EIO": faultfs.ErrIO} {
		t.Run(name, func(t *testing.T) {
			inj := faultfs.NewInjector(nil, faultfs.Rule{Op: faultfs.OpRename, Path: ".f64", Times: 1000, Err: errno})
			dir := t.TempDir()
			s, ts := newTestServer(t, Config{FS: inj, ClusterDir: dir, NodeID: "commit", ClusterWorkers: 1, JobWorkers: 1})
			// One failure short of tripping: the commit fault trips it.
			for i := 1; i < s.breaker.Threshold; i++ {
				s.breaker.Failure(time.Now())
			}
			if got := jobBytes(t, ts, submitJob(t, ts, q, in).ID); !bytes.Equal(got, want) {
				t.Error("job under a spool commit fault differs from the single-process bytes")
			}
			if inj.Faults() < 1 {
				t.Fatal("the schedule never fired; the test exercised nothing")
			}
			if trips := s.breaker.Trips(); trips != 1 {
				t.Errorf("breaker trips = %d, want 1: the commit fault was not counted", trips)
			}
			if _, err := os.Stat(casSpool(dir, in)); !os.IsNotExist(err) {
				t.Errorf("cas spool after a failed commit: stat err %v, want not-exist", err)
			}
			if st := getClusterStatus(t, ts); st.TasksPending+st.TasksClaimed+st.TasksDone != 0 {
				t.Errorf("tasks enqueued after a failed spool commit: %+v", st)
			}
		})
	}
}

// externalWorkerFS is externalWorker with its cluster store on fsys
// (nil is the OS), where a schedule can fault the worker's reads of the
// CAS spool.
func externalWorkerFS(t *testing.T, dir, node string, hooks cluster.WorkerHooks, fsys faultfs.FS) *cluster.Worker {
	t.Helper()
	st, err := cluster.OpenStore(dir, cluster.StoreOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	compute, err := New(Config{SpoolDir: t.TempDir(), JobsDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { compute.Close() })
	w, err := cluster.NewWorker(st, cluster.WorkerOptions{
		Node: node, Poll: 2 * time.Millisecond, HeartbeatEvery: 10 * time.Millisecond,
		Hooks: hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	compute.RegisterRunners(w)
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	return w
}

// taskRecorder is a BeforeRun hook that records every task a worker
// claims and runs before (when non-nil) the first one starts.
type taskRecorder struct {
	mu     sync.Mutex
	ids    []string
	before func(t *cluster.Task)
}

func (r *taskRecorder) hook(t *cluster.Task) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ids) == 0 && r.before != nil {
		r.before(t)
	}
	r.ids = append(r.ids, t.ID)
}

// failedTask returns the error recorded in the done file of the one
// task r saw, failing the test unless there was exactly one.
func (r *taskRecorder) failedTask(t *testing.T, dir string) string {
	t.Helper()
	r.mu.Lock()
	ids := append([]string(nil), r.ids...)
	r.mu.Unlock()
	if len(ids) != 1 {
		t.Fatalf("worker ran %d tasks, want 1", len(ids))
	}
	st, err := cluster.OpenStore(dir, cluster.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, msg, ok, err := st.TaskResult(ids[0])
	if err != nil || !ok {
		t.Fatalf("task %s: done=%v err=%v", ids[0], ok, err)
	}
	return msg
}

// TestChaosWorkerSpoolReadFault replays seeded EIO schedules on a
// worker's reads of the CAS spool, each landing mid-battery — after the
// validation pass, on one of the perturbation, NDR-baseline or attack
// passes over the upload. The worker must fail the task, never build a
// report from a partial read, so nothing reaches the shared result
// cache; the coordinator then runs the job locally to the single-process
// bytes.
func TestChaosWorkerSpoolReadFault(t *testing.T) {
	in := testCSV(t, 200, 3, 1, 4)
	const q = "?sigma=5&seed=2&chunk=32&stream=1"
	_, plain := newTestServer(t, Config{})
	status, _, want := post(t, plain, "/v1/assess"+q, in)
	if status != http.StatusOK {
		t.Fatalf("single-process golden: status %d", status)
	}
	// The task's spool reads: the opening header read, then five passes
	// over the 200×3 upload (validation, perturbation, the NDR baseline
	// and each attack's pass 2) of 10 reads each — a header read, one per
	// full 32-row chunk, two for the short last chunk and one at EOF.
	// Reads 1–11 end with the validation pass.
	const validated, reads = 11, 51
	for seed := int64(1); seed <= 3; seed++ {
		after := validated + rand.New(rand.NewSource(seed)).Intn(reads-validated)
		t.Run(fmt.Sprintf("seed%d/after%d", seed, after), func(t *testing.T) {
			inj := faultfs.NewInjector(nil, faultfs.Rule{Op: faultfs.OpRead, Path: ".f64", After: after, Err: faultfs.ErrIO})
			dir := t.TempDir()
			rec := &taskRecorder{}
			externalWorkerFS(t, dir, "flaky", cluster.WorkerHooks{BeforeRun: rec.hook}, inj)
			_, ts := newTestServer(t, Config{ClusterDir: dir, NodeID: "coord", ClusterWorkers: -1, JobWorkers: 1})
			if got := jobBytes(t, ts, submitJob(t, ts, q, in).ID); !bytes.Equal(got, want) {
				t.Error("job after a worker read fault differs from the single-process bytes")
			}
			if inj.Faults() != 1 {
				t.Fatalf("faults delivered = %d, want 1", inj.Faults())
			}
			if msg := rec.failedTask(t, dir); !strings.Contains(msg, "input/output error") {
				t.Errorf("task error = %q, want the spool read's EIO", msg)
			}
			cached, err := os.ReadDir(filepath.Join(dir, "results"))
			if err != nil {
				t.Fatal(err)
			}
			if len(cached) != 0 {
				t.Errorf("%d result cache entries after a failed task, want none", len(cached))
			}
		})
	}
}

// TestChaosClusterSpoolMissingOrTorn damages the CAS spool after the
// coordinator enqueued its task and before the worker runs it: removed,
// or cut mid-row. The task fails with a clean error naming the damage
// and the coordinator runs the job locally to the single-process bytes.
// A missing spool is also what a worker meets behind a coordinator from
// before the spool, which put only the CSV into the CAS; a mixed-version
// cluster therefore takes this path, to the same bytes.
func TestChaosClusterSpoolMissingOrTorn(t *testing.T) {
	in := testCSV(t, 200, 3, 1, 4)
	_, plain := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, wantErr string
		damage        func(path string) error
	}{
		{"missing", "missing from the cluster store", os.Remove},
		{"torn", "truncated mid-row", func(path string) error {
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, fi.Size()-4)
		}},
	} {
		for _, query := range []string{"?sigma=5&seed=2&chunk=32", "?sigma=5&seed=2&chunk=32&stream=1"} {
			t.Run(tc.name+"/"+query, func(t *testing.T) {
				status, _, want := post(t, plain, "/v1/assess"+query, in)
				if status != http.StatusOK {
					t.Fatalf("single-process golden: status %d", status)
				}
				dir := t.TempDir()
				spool := casSpool(dir, in)
				rec := &taskRecorder{before: func(*cluster.Task) {
					if err := tc.damage(spool); err != nil {
						t.Errorf("damage spool: %v", err)
					}
				}}
				externalWorkerFS(t, dir, "late", cluster.WorkerHooks{BeforeRun: rec.hook}, nil)
				_, ts := newTestServer(t, Config{ClusterDir: dir, NodeID: "coord", ClusterWorkers: -1, JobWorkers: 1})
				if got := jobBytes(t, ts, submitJob(t, ts, query, in).ID); !bytes.Equal(got, want) {
					t.Errorf("job over a %s spool differs from the single-process bytes", tc.name)
				}
				if msg := rec.failedTask(t, dir); !strings.Contains(msg, tc.wantErr) {
					t.Errorf("task error = %q, want it to contain %q", msg, tc.wantErr)
				}
			})
		}
	}
}

// TestClusterUploadDigestMismatchRunsLocally: a job upload that does not
// hash to its spec's digest is not delegated, whether the CAS has no
// spool for that digest yet (the decode path) or already has one (the
// hash-only path). Nothing is committed under the digest, nothing is
// enqueued, and the breaker is not fed: the local path recomputes the
// digest's report honestly.
func TestClusterUploadDigestMismatchRunsLocally(t *testing.T) {
	s, _ := newTestServer(t, Config{ClusterDir: t.TempDir(), NodeID: "mismatch", ClusterWorkers: 1})
	plan, err := sweep.Compile(defaultRegistry, mustGrid(t, `{"defenses":[{"scheme":"additive","sigmas":[5]}],"seeds":[1],"chunk":32,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	write := func(in []byte) (path, digest string) {
		path = filepath.Join(t.TempDir(), "upload.csv")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(in)
		return path, hex.EncodeToString(sum[:])
	}
	st := s.cluster.Store()
	path, _ := write(testCSV(t, 120, 3, 1, 4))
	otherPath, other := write(testCSV(t, 120, 3, 1, 5))

	if _, err, delegated := s.delegate(context.Background(), plan, path, other, nil); delegated || err != nil {
		t.Fatalf("cold mismatch: delegated=%v err=%v, want the local path", delegated, err)
	}
	if st.HasSpool(other) {
		t.Error("cold mismatch committed a spool under the spec digest")
	}
	if _, err, delegated := s.delegate(context.Background(), plan, otherPath, other, nil); !delegated || err != nil {
		t.Fatalf("matching upload: delegated=%v err=%v, want delegated", delegated, err)
	}
	before, err := os.Stat(casSpool(st.Root(), testCSV(t, 120, 3, 1, 5)))
	if err != nil {
		t.Fatal(err)
	}
	done := st.QueueStatsByKind()[cluster.TaskSweepGroup].Done
	if _, err, delegated := s.delegate(context.Background(), plan, path, other, nil); delegated || err != nil {
		t.Fatalf("warm mismatch: delegated=%v err=%v, want the local path", delegated, err)
	}
	after, err := os.Stat(casSpool(st.Root(), testCSV(t, 120, 3, 1, 5)))
	if err != nil || !os.SameFile(before, after) {
		t.Errorf("warm mismatch touched the committed spool (stat err %v)", err)
	}
	if got := st.QueueStatsByKind()[cluster.TaskSweepGroup].Done; got != done {
		t.Errorf("warm mismatch enqueued work: sweepgroup done %d -> %d", done, got)
	}
	// Neither mismatch is on the breaker's count.
	for i := 1; i < s.breaker.Threshold; i++ {
		s.breaker.Failure(time.Now())
	}
	if trips := s.breaker.Trips(); trips != 0 {
		t.Errorf("breaker trips = %d, want 0: a digest mismatch fed the breaker", trips)
	}
}

// TestClusterCanceledJobStopsSpoolPut: a job canceled while the
// coordinator decodes its upload ends with the cancellation — it does
// not run locally, commits no spool and is not a cluster fault.
func TestClusterCanceledJobStopsSpoolPut(t *testing.T) {
	s, _ := newTestServer(t, Config{ClusterDir: t.TempDir(), NodeID: "cancel", ClusterWorkers: 1})
	plan, err := sweep.Compile(defaultRegistry, mustGrid(t, `{"defenses":[{"scheme":"additive","sigmas":[5]}],"seeds":[1],"chunk":32,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	in := testCSV(t, 120, 3, 1, 4)
	path := filepath.Join(t.TempDir(), "upload.csv")
	if err := os.WriteFile(path, in, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(in)
	digest := hex.EncodeToString(sum[:])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err, delegated := s.delegate(ctx, plan, path, digest, nil); !delegated || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled job: delegated=%v err=%v, want delegated with context.Canceled", delegated, err)
	}
	if s.cluster.Store().HasSpool(digest) {
		t.Error("a canceled job committed its spool")
	}
	for i := 1; i < s.breaker.Threshold; i++ {
		s.breaker.Failure(time.Now())
	}
	if trips := s.breaker.Trips(); trips != 0 {
		t.Errorf("breaker trips = %d, want 0: a canceled job fed the breaker", trips)
	}
}

// mustGrid expands a sweep spec with the server's registry.
func mustGrid(t *testing.T, spec string) []sweep.Params {
	t.Helper()
	sp, err := sweep.ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sp.Expand(defaultRegistry, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return grid
}
