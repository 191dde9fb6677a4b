package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoRunner returns the spec and the upload contents as the result, so
// tests can verify both travelled intact through spool + recovery.
func echoRunner(ctx context.Context, spec json.RawMessage, upload string, progress func(Progress)) ([]byte, error) {
	body, err := os.ReadFile(upload)
	if err != nil {
		return nil, err
	}
	progress(Progress{ChunksDone: 3, ChunksTotal: 3})
	return []byte(fmt.Sprintf("spec=%s body=%s", spec, body)), nil
}

// blockingRunner blocks until release is closed or ctx is canceled,
// signalling entry on started.
type blockingRunner struct {
	started chan string // receives the upload path when a run begins
	release chan struct{}
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{started: make(chan string, 16), release: make(chan struct{})}
}

func (b *blockingRunner) run(ctx context.Context, spec json.RawMessage, upload string, progress func(Progress)) ([]byte, error) {
	b.started <- upload
	progress(Progress{ChunksDone: 1, ChunksTotal: 10})
	select {
	case <-b.release:
		return []byte("released"), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func newTestManager(t *testing.T, dir string, opts Options, run Runner) *Manager {
	t.Helper()
	opts.Dir = dir
	m, err := NewManager(opts, run)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	t.Cleanup(m.Close)
	return m
}

func waitState(t *testing.T, m *Manager, id string, want State) Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	snap, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	if snap.State != want {
		t.Fatalf("job %s state = %s (err %q), want %s", id, snap.State, snap.Error, want)
	}
	return snap
}

func TestJobLifecycle(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Options{Workers: 2}, echoRunner)
	snap, err := m.Submit(json.RawMessage(`{"sigma":5}`), "digest-1", strings.NewReader("a,b\n1,2\n"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap.State != StateQueued || snap.ID == "" || snap.Digest != "digest-1" {
		t.Fatalf("submit snapshot = %+v", snap)
	}
	done := waitState(t, m, snap.ID, StateDone)
	if done.Progress.ChunksDone != 3 || done.Progress.ChunksTotal != 3 {
		t.Errorf("progress = %+v, want 3/3", done.Progress)
	}
	if done.Started.IsZero() || done.Finished.IsZero() {
		t.Errorf("timestamps missing: %+v", done)
	}
	body, err := m.Result(snap.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	want := `spec={"sigma":5} body=a,b` + "\n1,2\n"
	if string(body) != want {
		t.Errorf("result = %q, want %q", body, want)
	}
}

func TestResultNotReadyAndNotFound(t *testing.T) {
	br := newBlockingRunner()
	m := newTestManager(t, t.TempDir(), Options{Workers: 1}, br.run)
	snap, err := m.Submit(json.RawMessage(`{}`), "d", strings.NewReader("x"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-br.started
	if _, err := m.Result(snap.ID); err == nil {
		t.Fatal("Result of a running job succeeded")
	} else {
		var nr *NotReadyError
		if !errors.As(err, &nr) || nr.State != StateRunning {
			t.Fatalf("Result of running job: %v, want NotReadyError{running}", err)
		}
	}
	if _, err := m.Result("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Result(nope) = %v, want ErrNotFound", err)
	}
	if _, err := m.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(nope) = %v, want ErrNotFound", err)
	}
	if err := m.Delete("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete(nope) = %v, want ErrNotFound", err)
	}
	close(br.release)
}

func TestFailedJobKeepsError(t *testing.T) {
	boom := func(ctx context.Context, spec json.RawMessage, upload string, progress func(Progress)) ([]byte, error) {
		return nil, fmt.Errorf("kaput")
	}
	m := newTestManager(t, t.TempDir(), Options{Workers: 1}, boom)
	snap, err := m.Submit(json.RawMessage(`{}`), "d", strings.NewReader("x"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	failed := waitState(t, m, snap.ID, StateFailed)
	if failed.Error != "kaput" {
		t.Errorf("error = %q, want kaput", failed.Error)
	}
	var nr *NotReadyError
	if _, err := m.Result(snap.ID); !errors.As(err, &nr) || nr.State != StateFailed {
		t.Errorf("Result of failed job: %v, want NotReadyError{failed}", err)
	}
}

func TestRunnerPanicBecomesFailure(t *testing.T) {
	angry := func(ctx context.Context, spec json.RawMessage, upload string, progress func(Progress)) ([]byte, error) {
		panic("numeric layer shape panic")
	}
	m := newTestManager(t, t.TempDir(), Options{Workers: 1}, angry)
	snap, err := m.Submit(json.RawMessage(`{}`), "d", strings.NewReader("x"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	failed := waitState(t, m, snap.ID, StateFailed)
	if !strings.Contains(failed.Error, "numeric layer shape panic") {
		t.Errorf("error = %q, want panic message", failed.Error)
	}
	// The worker survived the panic and serves the next job.
	snap2, err := m.Submit(json.RawMessage(`{}`), "d", strings.NewReader("x"))
	if err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	waitState(t, m, snap2.ID, StateFailed)
}

func TestQueueFull(t *testing.T) {
	br := newBlockingRunner()
	m := newTestManager(t, t.TempDir(), Options{Workers: 1, QueueDepth: 1}, br.run)
	// Job 1 occupies the worker, job 2 the single queue slot.
	if _, err := m.Submit(json.RawMessage(`{}`), "d", strings.NewReader("x")); err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	<-br.started
	if _, err := m.Submit(json.RawMessage(`{}`), "d", strings.NewReader("x")); err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	if _, err := m.Submit(json.RawMessage(`{}`), "d", strings.NewReader("x")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit 3 = %v, want ErrQueueFull", err)
	}
	close(br.release)
}

func TestDeleteCancelsRunningJob(t *testing.T) {
	br := newBlockingRunner()
	m := newTestManager(t, t.TempDir(), Options{Workers: 1}, br.run)
	snap, err := m.Submit(json.RawMessage(`{}`), "d", strings.NewReader("x"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-br.started // the runner is now blocked mid-"stream"
	if err := m.Delete(snap.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := m.Get(snap.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete = %v, want ErrNotFound", err)
	}
	// The worker is released by the canceled context (never by br.release)
	// and serves the next job; its directory is removed.
	snap2, err := m.Submit(json.RawMessage(`{}`), "d2", strings.NewReader("y"))
	if err != nil {
		t.Fatalf("Submit after delete: %v", err)
	}
	<-br.started
	close(br.release)
	waitState(t, m, snap2.ID, StateDone)
	if _, err := os.Stat(filepath.Join(m.opts.Dir, snap.ID)); !os.IsNotExist(err) {
		t.Errorf("deleted job dir still present: %v", err)
	}
}

func TestDeleteQueuedAndDoneJobs(t *testing.T) {
	br := newBlockingRunner()
	m := newTestManager(t, t.TempDir(), Options{Workers: 1, QueueDepth: 4}, br.run)
	running, _ := m.Submit(json.RawMessage(`{}`), "d", strings.NewReader("x"))
	<-br.started
	queued, _ := m.Submit(json.RawMessage(`{}`), "d", strings.NewReader("x"))
	if err := m.Delete(queued.ID); err != nil {
		t.Fatalf("Delete queued: %v", err)
	}
	if _, err := os.Stat(filepath.Join(m.opts.Dir, queued.ID)); !os.IsNotExist(err) {
		t.Errorf("queued job dir still present after delete: %v", err)
	}
	close(br.release)
	waitState(t, m, running.ID, StateDone)
	if err := m.Delete(running.ID); err != nil {
		t.Fatalf("Delete done: %v", err)
	}
	if _, err := m.Result(running.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("Result after delete = %v, want ErrNotFound", err)
	}
}

// TestRecoveryRerunsUnfinishedJobs is the crash-recovery contract: a
// manager killed with queued and running jobs leaves them on disk, and a
// new manager over the same dir re-runs both to completion with the same
// spec and upload bytes.
func TestRecoveryRerunsUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	br := newBlockingRunner()
	m1, err := NewManager(Options{Dir: dir, Workers: 1}, br.run)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	runningJob, err := m1.Submit(json.RawMessage(`{"which":"running"}`), "d1", strings.NewReader("upload-1"))
	if err != nil {
		t.Fatalf("Submit running: %v", err)
	}
	<-br.started
	queuedJob, err := m1.Submit(json.RawMessage(`{"which":"queued"}`), "d2", strings.NewReader("upload-2"))
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	doneCh := make(chan struct{})
	go func() { m1.Close(); close(doneCh) }() // "kill": cancels the running job
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}

	m2 := newTestManager(t, dir, Options{Workers: 1}, echoRunner)
	for _, tc := range []struct {
		snap Snapshot
		want string
	}{
		{runningJob, `spec={"which":"running"} body=upload-1`},
		{queuedJob, `spec={"which":"queued"} body=upload-2`},
	} {
		waitState(t, m2, tc.snap.ID, StateDone)
		body, err := m2.Result(tc.snap.ID)
		if err != nil {
			t.Fatalf("Result(%s): %v", tc.snap.ID, err)
		}
		if string(body) != tc.want {
			t.Errorf("recovered result = %q, want %q", body, tc.want)
		}
		got, err := m2.Get(tc.snap.ID)
		if err != nil || got.Digest != tc.snap.Digest {
			t.Errorf("recovered digest = %q (err %v), want %q", got.Digest, err, tc.snap.Digest)
		}
	}
}

// TestRecoveryKeepsTerminalJobs: done results survive a restart and are
// served from disk; corrupt entries are skipped without damage.
func TestRecoveryKeepsTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	m1, err := NewManager(Options{Dir: dir, Workers: 1}, echoRunner)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	snap, err := m1.Submit(json.RawMessage(`{"k":1}`), "d", strings.NewReader("payload"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := m1.Wait(ctx, snap.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	want, err := m1.Result(snap.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	m1.Close()

	// Plant garbage the recovery scan must tolerate.
	if err := os.MkdirAll(filepath.Join(dir, "not-a-job"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray-file"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	nope := func(ctx context.Context, spec json.RawMessage, upload string, progress func(Progress)) ([]byte, error) {
		t.Error("runner called for an already-done job")
		return nil, fmt.Errorf("unreachable")
	}
	m2 := newTestManager(t, dir, Options{Workers: 1}, nope)
	got, err := m2.Result(snap.ID)
	if err != nil {
		t.Fatalf("Result after restart: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("restarted result differs: %q vs %q", got, want)
	}
	if _, err := m2.Get("not-a-job"); !errors.Is(err, ErrNotFound) {
		t.Errorf("corrupt entry surfaced as a job: %v", err)
	}
}

// TestWaitWakesOnDeleteOfQueuedJob: deleting a job no worker will ever
// run must still wake Wait-ers — only runOne used to close the done
// channel, so a queued-then-deleted job left Wait hanging forever.
func TestWaitWakesOnDeleteOfQueuedJob(t *testing.T) {
	br := newBlockingRunner()
	m := newTestManager(t, t.TempDir(), Options{Workers: 1, QueueDepth: 4}, br.run)
	running, _ := m.Submit(json.RawMessage(`{}`), "d", strings.NewReader("x"))
	<-br.started
	queued, err := m.Submit(json.RawMessage(`{}`), "d", strings.NewReader("x"))
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	type waitResult struct {
		snap Snapshot
		err  error
	}
	waited := make(chan waitResult, 1)
	go func() {
		snap, err := m.Wait(context.Background(), queued.ID)
		waited <- waitResult{snap, err}
	}()
	// Give Wait time to park on the job's done channel; if Delete still
	// wins the lookup race, Wait returns ErrNotFound, which is also a
	// non-hanging outcome.
	time.Sleep(50 * time.Millisecond)
	if err := m.Delete(queued.ID); err != nil {
		t.Fatalf("Delete queued: %v", err)
	}
	select {
	case res := <-waited:
		if res.err == nil && res.snap.State != StateCanceled {
			t.Errorf("Wait after delete returned state %s, want canceled", res.snap.State)
		} else if res.err != nil && !errors.Is(res.err, ErrNotFound) {
			t.Errorf("Wait after delete: %v", res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait still blocked after the queued job was deleted")
	}
	close(br.release)
	waitState(t, m, running.ID, StateDone)
}

// TestSubmitFileAdoptsUpload: the rename-based submit path leaves no
// copy behind and serves the same bytes.
func TestSubmitFileAdoptsUpload(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, Options{Workers: 1}, echoRunner)
	spool := filepath.Join(t.TempDir(), "upload.csv")
	if err := os.WriteFile(spool, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := m.SubmitFile(json.RawMessage(`{"k":2}`), "dg", spool)
	if err != nil {
		t.Fatalf("SubmitFile: %v", err)
	}
	if _, err := os.Stat(spool); !os.IsNotExist(err) {
		t.Errorf("source file still present after adoption: %v", err)
	}
	waitState(t, m, snap.ID, StateDone)
	body, err := m.Result(snap.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if want := `spec={"k":2} body=a,b` + "\n1,2\n"; string(body) != want {
		t.Errorf("result = %q, want %q", body, want)
	}
}

// TestRecoveryRemovesOrphanDirs: a dir with an upload but no job.json
// (a crash mid-Submit) is garbage nothing else can ever reclaim — the
// recovery scan removes it.
func TestRecoveryRemovesOrphanDirs(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "deadbeefdeadbeefdeadbeef")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, "upload.csv"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	newTestManager(t, dir, Options{Workers: 1}, echoRunner)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan dir survived recovery: %v", err)
	}
}

func TestTTLExpiresFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, Options{Workers: 1, TTL: 100 * time.Millisecond}, echoRunner)
	snap, err := m.Submit(json.RawMessage(`{}`), "d", strings.NewReader("x"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, snap.ID, StateDone)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := m.Get(snap.ID); errors.Is(err, ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job not expired after TTL")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// expire drops the job from the table first and removes its dir
	// after releasing the lock, so the dir may outlive the table entry
	// by a moment; it must still go before the deadline.
	for {
		_, err := os.Stat(filepath.Join(dir, snap.ID))
		if os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expired job dir still present: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestStatsGauges(t *testing.T) {
	br := newBlockingRunner()
	m := newTestManager(t, t.TempDir(), Options{Workers: 1, QueueDepth: 4}, br.run)
	a, _ := m.Submit(json.RawMessage(`{}`), "d", strings.NewReader("x"))
	<-br.started
	m.Submit(json.RawMessage(`{}`), "d", strings.NewReader("x"))
	queued, running, terminal := m.Stats()
	if queued != 1 || running != 1 || terminal != 0 {
		t.Errorf("Stats = %d/%d/%d, want 1/1/0", queued, running, terminal)
	}
	close(br.release)
	waitState(t, m, a.ID, StateDone)
}

// TestConcurrentSubmitters hammers Submit from many goroutines against a
// small pool; run under -race this checks the manager's locking, and the
// accepted+rejected total must account for every attempt.
func TestConcurrentSubmitters(t *testing.T) {
	var ran atomic.Int64
	count := func(ctx context.Context, spec json.RawMessage, upload string, progress func(Progress)) ([]byte, error) {
		ran.Add(1)
		return []byte("ok"), nil
	}
	m := newTestManager(t, t.TempDir(), Options{Workers: 2, QueueDepth: 8}, count)
	const attempts = 64
	var accepted, rejected atomic.Int64
	done := make(chan struct{}, attempts)
	for i := 0; i < attempts; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			_, err := m.Submit(json.RawMessage(`{}`), "d", strings.NewReader("x"))
			switch {
			case err == nil:
				accepted.Add(1)
			case errors.Is(err, ErrQueueFull):
				rejected.Add(1)
			default:
				t.Errorf("Submit: %v", err)
			}
		}()
	}
	for i := 0; i < attempts; i++ {
		<-done
	}
	if accepted.Load()+rejected.Load() != attempts {
		t.Errorf("accepted %d + rejected %d != %d", accepted.Load(), rejected.Load(), attempts)
	}
	if accepted.Load() == 0 {
		t.Error("every submit was rejected")
	}
	// Every accepted job eventually runs.
	deadline := time.Now().Add(10 * time.Second)
	for ran.Load() < accepted.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("ran %d of %d accepted jobs", ran.Load(), accepted.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeleteVsExpiryRace hammers DELETE against the TTL sweeper over the
// same finished jobs. Before removal was serialized behind the job lock,
// the sweeper's RemoveAll could interleave with Delete's removal and with
// the worker's terminal job.json persist, tearing files inside a
// half-deleted directory; under -race this test pins the fix. The state
// dir must end empty: every job was either deleted or expired, and no
// interleaving may resurrect its files.
func TestDeleteVsExpiryRace(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, Options{Workers: 2, TTL: time.Nanosecond}, echoRunner)
	farFuture := time.Now().UTC().Add(24 * time.Hour)
	for i := 0; i < 60; i++ {
		snap, err := m.Submit(json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)), "digest", strings.NewReader("1,2\n"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := m.Wait(ctx, snap.ID); err != nil {
			cancel()
			t.Fatalf("wait %d: %v", i, err)
		}
		cancel()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			m.expire(farFuture)
		}()
		go func() {
			defer wg.Done()
			// The job may already be expired; ErrNotFound is the expected
			// outcome of losing that race.
			if err := m.Delete(snap.ID); err != nil && !errors.Is(err, ErrNotFound) {
				t.Errorf("delete %d: %v", i, err)
			}
		}()
		wg.Wait()
	}
	m.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read state dir: %v", err)
	}
	for _, e := range entries {
		t.Errorf("state dir entry %q survived delete-vs-expiry", e.Name())
	}
}
