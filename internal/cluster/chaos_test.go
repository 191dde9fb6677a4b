// The cluster-plane chaos suite: seeded storage-fault schedules
// replayed against the shared state directory. Same contract as the
// jobs suite — golden bytes or a clean typed error, never a torn blob
// served as content, never a state dir a reopen cannot continue from.

package cluster

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"randpriv/internal/faultfs"
)

// chaosStore opens a store over root with the given fault schedule.
func chaosStore(t *testing.T, root string, inj faultfs.FS) *Store {
	t.Helper()
	st, err := OpenStore(root, StoreOptions{FS: inj})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return st
}

// TestChaosCASWriteRetriedToCorrectBlob: ENOSPC on the first CAS
// staging write is retried; the committed blob carries the exact bytes
// under the exact digest.
func TestChaosCASWriteRetriedToCorrectBlob(t *testing.T) {
	inj := faultfs.NewInjector(nil,
		faultfs.Rule{Op: faultfs.OpWrite, Path: "tmp/put-", Err: faultfs.ErrNoSpace},
	)
	st := chaosStore(t, filepath.Join(t.TempDir(), "cluster"), inj)
	payload := []byte("rows,of,data\n1,2,3\n")
	digest, err := st.PutBytes(payload)
	if err != nil {
		t.Fatalf("PutBytes under ENOSPC schedule: %v", err)
	}
	if inj.Faults() < 1 {
		t.Fatal("the schedule never fired; the test exercised nothing")
	}
	body, err := os.ReadFile(st.CASPath(digest))
	if err != nil || !bytes.Equal(body, payload) {
		t.Fatalf("CAS blob = %q, %v; want the exact payload", body, err)
	}
}

// TestChaosTornWriteCrashSweepRecovers: the device tears a CAS staging
// write mid-page and the process dies. Nothing was committed, the torn
// prefix is an orphan under tmp/, and a reopened store sweeps it and
// serves the retried put with full-fidelity bytes.
func TestChaosTornWriteCrashSweepRecovers(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cluster")
	payload := []byte("the full payload that must never be served torn")
	inj := faultfs.NewInjector(nil,
		faultfs.Rule{Op: faultfs.OpWrite, Path: "tmp/put-", KeepBytes: 7, Crash: true},
	)
	s1 := chaosStore(t, root, inj)
	digest, err := s1.PutBytes(payload)
	if !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("PutBytes at crash point: digest=%q err=%v, want ErrCrashed", digest, err)
	}

	// Reopen ("restart"): the torn orphan survived the crash; the CAS
	// must not hold a blob.
	s2, err := OpenStore(root, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	entries, err := os.ReadDir(filepath.Join(root, "tmp"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("tmp after crash holds %d entries (%v), want exactly the torn orphan", len(entries), err)
	}
	// Open's own sweep is age-gated (a live writer may own young files);
	// an explicit unconditional sweep reclaims it now.
	if n, err := s2.SweepOrphans(0); err != nil || n != 1 {
		t.Fatalf("SweepOrphans(0) = %d, %v; want 1 orphan removed", n, err)
	}
	entries, err = os.ReadDir(filepath.Join(root, "tmp"))
	if err != nil || len(entries) != 0 {
		t.Fatalf("tmp after sweep holds %d entries (%v), want 0", len(entries), err)
	}

	digest, err = s2.PutBytes(payload)
	if err != nil {
		t.Fatalf("PutBytes after recovery: %v", err)
	}
	body, err := os.ReadFile(s2.CASPath(digest))
	if err != nil || !bytes.Equal(body, payload) {
		t.Fatalf("recovered CAS blob = %q, %v; want the full payload, never the torn prefix", body, err)
	}
}

// TestChaosDoneFileReadFaultsConverge: a device hiccuping EIO on done
// file reads while the coordinator polls still converges the plan to
// the runner's in-process results — the retry layer absorbs the
// hiccups.
func TestChaosDoneFileReadFaultsConverge(t *testing.T) {
	inj := faultfs.NewInjector(nil,
		faultfs.Rule{Op: faultfs.OpRead, Path: "tasks/done", Times: 3, Err: faultfs.ErrIO},
	)
	st := chaosStore(t, filepath.Join(t.TempDir(), "cluster"), inj)
	tasks := fakePlan(3)

	c, err := NewCoordinator(st, CoordinatorOptions{
		Node: "coord", Workers: 1,
		Poll: 2 * time.Millisecond, LeaseTTL: time.Second,
		HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(TaskSweepGroup, echoRunner)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results, err := runPlan(ctx, c, tasks)
	if err != nil {
		t.Fatalf("plan under EIO schedule: %v", err)
	}
	checkResults(t, tasks, results)
	if inj.Faults() < 3 {
		t.Fatalf("schedule delivered %d faults, want 3", inj.Faults())
	}
}

// TestChaosClaimErrorStormBacksOffThenProgresses: the pending-dir scan
// fails for a while; the worker's claim loop backs off instead of
// spinning and completes the task once the storm clears.
func TestChaosClaimErrorStormBacksOffThenProgresses(t *testing.T) {
	inj := faultfs.NewInjector(nil,
		faultfs.Rule{Op: faultfs.OpReadDir, Path: filepath.Join("tasks", "pending"), Times: 6, Err: faultfs.ErrIO},
	)
	st := chaosStore(t, filepath.Join(t.TempDir(), "cluster"), inj)
	task := fakeTask(1)
	if err := st.Enqueue(task); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	w, err := NewWorker(st, WorkerOptions{
		Node: "stormy", Poll: time.Millisecond, HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Register(TaskSweepGroup, echoRunner)
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if _, msg, ok, err := st.TaskResult(task.ID); err == nil && ok {
			if msg != "" {
				t.Fatalf("task failed: %s", msg)
			}
			if inj.Faults() < 6 {
				t.Fatalf("schedule delivered %d faults, want 6", inj.Faults())
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("task never completed after the claim-error storm cleared")
}

// TestBreakerTransitions drives the delegation breaker with a synthetic
// clock through its full lifecycle: closed -> open -> half-open probe
// -> re-armed -> closed.
func TestBreakerTransitions(t *testing.T) {
	b := &Breaker{Threshold: 3, Cooldown: time.Minute}
	t0 := time.Unix(1000, 0)

	// Below the threshold the breaker stays closed, and a success wipes
	// the streak.
	b.Failure(t0)
	b.Failure(t0)
	b.Success()
	b.Failure(t0)
	b.Failure(t0)
	if !b.Allow(t0) || b.Open(t0) {
		t.Fatal("breaker opened below the consecutive-failure threshold")
	}

	// The third consecutive failure trips it.
	b.Failure(t0)
	if b.Allow(t0) || !b.Open(t0) {
		t.Fatal("breaker did not open at the threshold")
	}
	if b.Trips() != 1 {
		t.Fatalf("Trips() = %d, want 1", b.Trips())
	}
	if b.Allow(t0.Add(30 * time.Second)) {
		t.Fatal("breaker admitted a call mid-cooldown")
	}

	// Cooldown elapses: exactly one probe goes through.
	t1 := t0.Add(time.Minute)
	if !b.Allow(t1) {
		t.Fatal("breaker refused the half-open probe")
	}
	if b.Allow(t1) {
		t.Fatal("breaker admitted a second concurrent probe")
	}

	// The probe fails: cooldown re-arms from the failure time.
	b.Failure(t1)
	if b.Allow(t1.Add(30 * time.Second)) {
		t.Fatal("breaker admitted a call during the re-armed cooldown")
	}
	if b.Trips() != 1 {
		t.Fatalf("Trips() after probe failure = %d, want 1 (re-arming is not a new trip)", b.Trips())
	}

	// Next probe succeeds: the breaker closes for good.
	t2 := t1.Add(time.Minute)
	if !b.Allow(t2) {
		t.Fatal("breaker refused the second probe")
	}
	b.Success()
	if !b.Allow(t2) || b.Open(t2) {
		t.Fatal("breaker did not close after a successful probe")
	}
}

// TestOpenSweepsOldOrphans: Open's own startup sweep removes put-*
// staging files older than the age gate and keeps young ones.
func TestOpenSweepsOldOrphans(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cluster")
	st, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(root, "tmp", "put-old")
	young := filepath.Join(root, "tmp", "put-young")
	for _, p := range []string{old, young} {
		if err := os.WriteFile(p, []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(old, stale, stale); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(root, StoreOptions{}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := os.Stat(old); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale orphan survived Open's sweep: %v", err)
	}
	if _, err := os.Stat(young); err != nil {
		t.Fatalf("young staging file was swept (a live writer may still own it): %v", err)
	}
	_ = st
	// Only put-* files are candidates; everything else in tmp/ is left
	// alone even by an unconditional sweep.
	other := filepath.Join(root, "tmp", "not-a-staging-file")
	if err := os.WriteFile(other, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(root, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := st2.SweepOrphans(0); err != nil || n != 1 {
		t.Fatalf("SweepOrphans(0) = %d, %v; want just the young put-* file", n, err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("non-staging file removed by the sweep: %v", err)
	}
}

// TestChaosEnqueueFaultSurfacesCleanly: a store whose writes are all
// failing rejects Enqueue with a typed transient error after the retry
// budget — it must not leave a half-written pending file that a worker
// could claim.
func TestChaosEnqueueFaultSurfacesCleanly(t *testing.T) {
	inj := faultfs.NewInjector(nil,
		faultfs.Rule{Op: faultfs.OpWrite, Path: "tmp/put-", Times: 100, Err: faultfs.ErrIO},
	)
	st := chaosStore(t, filepath.Join(t.TempDir(), "cluster"), inj)
	err := st.Enqueue(fakeTask(7))
	if err == nil || !strings.Contains(err.Error(), "attempts exhausted") {
		t.Fatalf("Enqueue under write storm: %v, want an exhausted retry error", err)
	}
	pending, claimed, done := st.QueueStats()
	if pending != 0 || claimed != 0 || done != 0 {
		t.Fatalf("queue stats after failed enqueue = %d/%d/%d, want all zero (no claimable debris)", pending, claimed, done)
	}
}
