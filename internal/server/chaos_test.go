// Server-plane robustness tests: Retry-After on backpressure statuses,
// the degraded flag on /healthz, and the spool under storage faults.
// Contract: a client always gets either the bytes or a machine-readable
// signal of what to do next — when to retry, whether the cluster is
// degraded — never a partial 200.

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"testing"
	"time"

	"randpriv/internal/faultfs"
)

// retryAfterSecs parses the Retry-After header, failing the test if it
// is absent or not a positive integer — the contract on every 429/503.
func retryAfterSecs(t *testing.T, hdr http.Header) int {
	t.Helper()
	raw := hdr.Get("Retry-After")
	if raw == "" {
		t.Fatal("backpressure response carries no Retry-After header")
	}
	secs, err := strconv.Atoi(raw)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer second count", raw)
	}
	return secs
}

func TestRetryAfterOn429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	in := testCSV(t, 30, 3, 1, 1)
	release := occupyWorker(t, s)
	defer release()

	status, hdr, out := post(t, ts, "/v1/assess", in)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d (body %s), want 429", status, out)
	}
	if secs := retryAfterSecs(t, hdr); secs > 120 {
		t.Errorf("Retry-After = %d, want clamped to <= 120", secs)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(out, &env); err != nil || env.Error == "" {
		t.Fatalf("429 body = %q (%v), want the JSON error envelope", out, err)
	}
}

func TestRetryAfterOn503(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RequestTimeout: 30 * time.Millisecond})
	in := testCSV(t, 30, 3, 1, 1)
	release := occupyWorker(t, s)

	done := make(chan struct{})
	var status int
	var hdr http.Header
	go func() {
		defer close(done)
		status, hdr, _ = post(t, ts, "/v1/assess", in)
	}()
	time.Sleep(80 * time.Millisecond)
	release()
	<-done
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	retryAfterSecs(t, hdr)
}

// TestHealthzDegradedAfterBreakerTrips: three consecutive delegation
// failures open the breaker. /healthz reports the node degraded (still
// 200 — the node serves everything serially), and /v1/status carries
// the trip count in its cluster section.
func TestHealthzDegradedAfterBreakerTrips(t *testing.T) {
	s, ts := newTestServer(t, clusterConfig(t, 1))
	now := time.Now()
	for i := 0; i < 3; i++ {
		s.breaker.Failure(now)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200 (degraded is not down)", resp.StatusCode)
	}
	var h struct {
		Status   string `json:"status"`
		Degraded bool   `json:"degraded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.Degraded {
		t.Error("healthz degraded = false after the breaker opened")
	}

	resp2, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st struct {
		Cluster *struct {
			Degraded     bool  `json:"degraded"`
			BreakerTrips int64 `json:"breaker_trips"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil {
		t.Fatal("/v1/status has no cluster section")
	}
	if !st.Cluster.Degraded {
		t.Error("cluster.degraded = false after the breaker opened")
	}
	if st.Cluster.BreakerTrips != 1 {
		t.Errorf("cluster.breaker_trips = %d, want 1", st.Cluster.BreakerTrips)
	}
}

// TestDegradedClusterStillServes: with the breaker held open, a job is
// not delegated — it runs locally and stores the single-process bytes,
// and no task reaches the queue. Degradation is invisible to the client
// except through /healthz.
func TestDegradedClusterStillServes(t *testing.T) {
	in := testCSV(t, 120, 3, 2, 6)
	const q = "?sigma=5&seed=3&chunk=32&stream=1"

	_, plain := newTestServer(t, Config{})
	statusW, _, want := post(t, plain, "/v1/assess"+q, in)
	if statusW != http.StatusOK {
		t.Fatalf("single-process golden: status %d", statusW)
	}

	s, ts := newTestServer(t, clusterConfig(t, 1))
	now := time.Now()
	for i := 0; i < 3; i++ {
		s.breaker.Failure(now)
	}
	js := submitJob(t, ts, q, in)
	if final := waitJob(t, ts, js.ID); final.State != "done" {
		t.Fatalf("degraded node: job state %s (error %q), want done via the local path", final.State, final.Error)
	}
	status, got := getResult(t, ts, js.ID)
	if status != http.StatusOK {
		t.Fatalf("degraded node: result status %d", status)
	}
	if !bytes.Equal(got, want) {
		t.Error("degraded node stored different bytes than the single-process golden")
	}
	if st := getClusterStatus(t, ts); st.TasksDone != 0 || len(st.TasksByKind) != 0 {
		t.Errorf("degraded node delegated the job: tasks_done=%d kinds=%v, want no task", st.TasksDone, st.TasksByKind)
	}
}

// TestChaosSpoolWriteFaultCleanError: a failing disk under the upload
// spool must surface as a JSON error envelope, never a partial 200 and
// never a hung request.
func TestChaosSpoolWriteFaultCleanError(t *testing.T) {
	inj := faultfs.NewInjector(nil,
		faultfs.Rule{Op: faultfs.OpWrite, Path: "randprivd-", Times: 1000, Err: faultfs.ErrNoSpace},
	)
	_, ts := newTestServer(t, Config{FS: inj})
	in := testCSV(t, 60, 3, 1, 2)

	status, _, out := post(t, ts, "/v1/assess?stream=1&chunk=32&sigma=5&seed=1", in)
	if status == http.StatusOK {
		t.Fatalf("assess returned 200 while the spool disk was failing (body %d bytes)", len(out))
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(out, &env); err != nil || env.Error == "" {
		t.Fatalf("fault response body = %q (%v), want the JSON error envelope", out, err)
	}
	if inj.Faults() < 1 {
		t.Fatal("the spool schedule never fired; the test exercised nothing")
	}
}

// TestChaosFloat64SpoolFaults replays seeded schedules against the two
// float64 spools a streamed assessment writes after its one CSV decode
// (the validated upload and the disguised copy): ENOSPC on a spool
// write, EIO on a spool re-read. Either fault is the server's storage
// failing, not the client's input, so each must end in the JSON error
// envelope with a 5xx status — never a 400, never a 200 built from a
// partial read — and must leave no spool file behind in the spool dir.
// Memory mode holds both copies resident and writes no float64 spool.
func TestChaosFloat64SpoolFaults(t *testing.T) {
	in := testCSV(t, 200, 3, 1, 4)
	const query = "?sigma=5&seed=2&chunk=32&stream=1"
	// The streamed rows of the seeded schedule (seeds 1 and 4 drew
	// stream mode; the rows that drew memory mode went with memory
	// mode's float64 spools). A write index counts spool writes: each
	// spool takes a header write and one flushed data write, 4 in all. A
	// read index counts spool reads: each spool's opening header read,
	// then 8 passes (perturb, the NDR baseline over both copies, the
	// shared sketch, each attack's pass 2 over both copies) of 10 reads
	// each — a header read, one per full 32-row chunk, two for the short
	// last chunk and one at EOF — 82 in all. Read 56 lands in the first
	// attack's pass 2, read 76 in the second's.
	schedules := []struct {
		seed        int64
		write, read int
	}{{1, 3, 56}, {4, 0, 76}}
	for _, sc := range schedules {
		seed := sc.seed
		rules := map[string]faultfs.Rule{
			"ENOSPC write": {Op: faultfs.OpWrite, Path: ".f64", After: sc.write, Err: faultfs.ErrNoSpace},
			"EIO read":     {Op: faultfs.OpRead, Path: ".f64", After: sc.read, Err: faultfs.ErrIO},
		}
		for name, rule := range rules {
			t.Run(fmt.Sprintf("seed%d/%s/after%d", seed, name, rule.After), func(t *testing.T) {
				inj := faultfs.NewInjector(nil, rule)
				spoolDir := t.TempDir()
				_, ts := newTestServer(t, Config{FS: inj, SpoolDir: spoolDir, CacheEntries: -1})
				status, _, out := post(t, ts, "/v1/assess"+query, in)
				if inj.Faults() < 1 {
					t.Fatalf("the schedule never fired (status %d); the test exercised nothing", status)
				}
				if status < 500 {
					t.Fatalf("%s: status %d (body %s), want a 5xx", query, status, out)
				}
				var env struct {
					Error string `json:"error"`
					Code  string `json:"code"`
				}
				if err := json.Unmarshal(out, &env); err != nil || env.Error == "" || env.Code == "" {
					t.Fatalf("fault response body = %q (%v), want the JSON error envelope", out, err)
				}
				left, err := os.ReadDir(spoolDir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range left {
					t.Errorf("spool file %s left behind", e.Name())
				}
			})
		}
	}
}
