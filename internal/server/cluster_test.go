package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// clusterConfig returns a cluster-mode server Config over a fresh state
// directory with n embedded claim loops.
func clusterConfig(t *testing.T, n int) Config {
	t.Helper()
	return Config{
		ClusterDir:     t.TempDir(),
		NodeID:         fmt.Sprintf("test-node-%dw", n),
		ClusterWorkers: n,
	}
}

// TestClusterAssessByteIdentity is the server-level identity contract:
// a cluster-mode node — with 1 and with 2 claim loops, so the sharded
// sketch path and the delegated-job path both exercise real fan-out —
// produces byte-identical /v1/assess responses and job results to a
// single-process server, for both memory and streamed batteries.
func TestClusterAssessByteIdentity(t *testing.T) {
	in := testCSV(t, 240, 4, 2, 9)
	queries := []string{
		"?sigma=5&seed=3&chunk=32",
		"?sigma=5&seed=3&chunk=32&stream=1",
		"?sigma=5&seed=3&chunk=32&stream=1&scheme=correlated",
	}
	// Jobs get parameters no sync assess has touched, so the delegated
	// task actually executes instead of resolving from the result cache
	// the sync request just warmed.
	jobQueries := []string{
		"?sigma=7&seed=2&chunk=32",
		"?sigma=7&seed=2&chunk=32&stream=1",
	}

	// Golden bytes from a server with no cluster at all.
	_, baseTS := newTestServer(t, Config{})
	golden := make(map[string][]byte, len(queries)+len(jobQueries))
	for _, q := range append(append([]string{}, queries...), jobQueries...) {
		status, _, body := post(t, baseTS, "/v1/assess"+q, in)
		if status != http.StatusOK {
			t.Fatalf("baseline %s: status %d, body %s", q, status, body)
		}
		golden[q] = body
	}

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d-workers", workers), func(t *testing.T) {
			_, ts := newTestServer(t, clusterConfig(t, workers))
			for _, q := range queries {
				status, hdr, body := post(t, ts, "/v1/assess"+q, in)
				if status != http.StatusOK {
					t.Fatalf("%s: status %d, body %s", q, status, body)
				}
				if !bytes.Equal(body, golden[q]) {
					t.Errorf("%s: cluster assess differs from single-process golden", q)
				}
				if hdr.Get("X-Cache") != "miss" {
					t.Errorf("%s: X-Cache = %q, want miss on first compute", q, hdr.Get("X-Cache"))
				}
			}

			// Async jobs go through the task queue (delegated to an
			// embedded claim loop) and must store the same bytes.
			for _, q := range jobQueries {
				js := submitJob(t, ts, q, in)
				final := waitJob(t, ts, js.ID)
				if final.State != "done" {
					t.Fatalf("%s: delegated job state = %s (error %q)", q, final.State, final.Error)
				}
				rstatus, jobBody := getResult(t, ts, js.ID)
				if rstatus != http.StatusOK {
					t.Fatalf("%s: result status %d", q, rstatus)
				}
				if !bytes.Equal(jobBody, golden[q]) {
					t.Errorf("%s: delegated job result differs from single-process golden", q)
				}
			}
		})
	}
}

// TestClusterSharedResultCache pins the cross-node cache: two server
// processes over ONE cluster directory, where the second serves the
// first's computed report without recompute (X-Cache: cluster), and a
// delegated repeat job resolves from the shared cache too.
func TestClusterSharedResultCache(t *testing.T) {
	dir := t.TempDir()
	mk := func(node string) *httptest.Server {
		_, ts := newTestServer(t, Config{ClusterDir: dir, NodeID: node, ClusterWorkers: 1})
		return ts
	}
	a := mk("node-a")
	b := mk("node-b")

	in := testCSV(t, 160, 3, 2, 4)
	const q = "?sigma=5&seed=3&chunk=32&stream=1"
	statusA, hdrA, bodyA := post(t, a, "/v1/assess"+q, in)
	if statusA != http.StatusOK || hdrA.Get("X-Cache") != "miss" {
		t.Fatalf("node-a: status %d, X-Cache %q", statusA, hdrA.Get("X-Cache"))
	}
	statusB, hdrB, bodyB := post(t, b, "/v1/assess"+q, in)
	if statusB != http.StatusOK {
		t.Fatalf("node-b: status %d, body %s", statusB, bodyB)
	}
	if hdrB.Get("X-Cache") != "cluster" {
		t.Errorf("node-b X-Cache = %q, want cluster (served from the shared result cache)", hdrB.Get("X-Cache"))
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Errorf("nodes served different bytes for the same assessment")
	}
}

// TestStatusClusterSection asserts the per-node gauges surface on
// GET /v1/status: node identity, alive worker count, queue depths and
// one heartbeat row per node.
func TestStatusClusterSection(t *testing.T) {
	_, ts := newTestServer(t, clusterConfig(t, 2))
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Cluster *struct {
			Node         string `json:"node"`
			AliveWorkers int    `json:"alive_workers"`
			TasksPending int    `json:"tasks_pending"`
			Nodes        []struct {
				Node  string `json:"node"`
				Role  string `json:"role"`
				Alive bool   `json:"alive"`
			} `json:"nodes"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Cluster == nil {
		t.Fatal("/v1/status has no cluster section on a cluster-mode server")
	}
	if h.Cluster.Node != "test-node-2w" {
		t.Errorf("cluster.node = %q", h.Cluster.Node)
	}
	if h.Cluster.AliveWorkers != 2 {
		t.Errorf("alive_workers = %d, want 2 embedded claim loops", h.Cluster.AliveWorkers)
	}
	// Coordinator heartbeat + 2 embedded workers = 3 node rows, all live.
	if len(h.Cluster.Nodes) != 3 {
		t.Fatalf("node rows = %d, want 3", len(h.Cluster.Nodes))
	}
	for _, n := range h.Cluster.Nodes {
		if !n.Alive {
			t.Errorf("node %s (%s) reported dead right after start", n.Node, n.Role)
		}
	}

	// And absent without a cluster.
	_, plain := newTestServer(t, Config{})
	resp2, err := http.Get(plain.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var h2 struct {
		Cluster *struct{} `json:"cluster"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if h2.Cluster != nil {
		t.Error("single-process /v1/status grew a cluster section")
	}
}

// TestStatusGaugeStorm hammers submit/poll/cancel from 32 goroutines
// while reading /v1/status: the job gauges must never go negative and
// must never sum to more jobs than were ever submitted — the gauge
// arithmetic is lock-protected counters, and this is the test that
// catches a decrement-twice bug under contention.
func TestStatusGaugeStorm(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 4, JobQueueDepth: 4096, CacheEntries: -1})
	in := testCSV(t, 24, 3, 2, 5)
	const goroutines = 32
	const perG = 3
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Gauge reader: poll continuously until the storm ends.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/v1/status")
			if err != nil {
				continue
			}
			var h struct {
				JobsQueued   int `json:"jobs_queued"`
				JobsRunning  int `json:"jobs_running"`
				JobsFinished int `json:"jobs_finished"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err != nil {
				continue
			}
			if h.JobsQueued < 0 || h.JobsRunning < 0 || h.JobsFinished < 0 {
				t.Errorf("negative gauge: queued=%d running=%d finished=%d", h.JobsQueued, h.JobsRunning, h.JobsFinished)
				return
			}
			if sum := h.JobsQueued + h.JobsRunning + h.JobsFinished; sum > goroutines*perG {
				t.Errorf("gauge sum %d exceeds %d submitted jobs", sum, goroutines*perG)
				return
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				// Unique seeds keep every submission a distinct job, so a
				// concurrent delete on one cannot resolve another.
				js := submitJob(t, ts, fmt.Sprintf("?sigma=5&seed=%d&chunk=8", g*perG+k+1), in)
				if k%2 == 0 {
					deleteJob(t, ts, js.ID) // cancel or remove, racing completion
				} else {
					waitJob(t, ts, js.ID)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-readerDone
}

// TestClusterQuotedHeaderKeepsBreakerClosed: attribute names may hold
// commas and quotes (the CSV quotes them). The sharded sketch cuts the
// disguised float64 spool at row offsets, so no spelling of the header
// can make it decline: the cluster path runs, the bytes equal the
// single-process response, and the delegation breaker stays closed.
func TestClusterQuotedHeaderKeepsBreakerClosed(t *testing.T) {
	raw := testCSV(t, 240, 4, 2, 9)
	in := append([]byte(`"a,0",b1,b2,b3`), raw[bytes.IndexByte(raw, '\n'):]...)
	_, plain := newTestServer(t, Config{})
	_, ts := newTestServer(t, clusterConfig(t, 1))
	for seed := 1; seed <= 3; seed++ {
		q := fmt.Sprintf("/v1/assess?stream=1&attacks=pcadr&chunk=32&sigma=5&seed=%d", seed)
		wantStatus, _, want := post(t, plain, q, in)
		if wantStatus != http.StatusOK {
			t.Fatalf("single-process %s: status %d, body %s", q, wantStatus, want)
		}
		status, _, got := post(t, ts, q, in)
		if status != http.StatusOK {
			t.Fatalf("cluster %s: status %d, body %s", q, status, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("cluster %s differs from the single-process response", q)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Cluster *struct {
			Degraded     bool  `json:"degraded"`
			BreakerTrips int64 `json:"breaker_trips"`
			TasksByKind  map[string]struct {
				Done int `json:"done"`
			} `json:"tasks_by_kind"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil {
		t.Fatal("/v1/status has no cluster section")
	}
	if st.Cluster.BreakerTrips != 0 || st.Cluster.Degraded {
		t.Errorf("breaker_trips = %d, degraded = %v; want 0 and false", st.Cluster.BreakerTrips, st.Cluster.Degraded)
	}
	if st.Cluster.TasksByKind["sketch"].Done == 0 {
		t.Error("no sketch task ran: the sharded sketch path was not exercised")
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h struct {
		Degraded bool `json:"degraded"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Degraded {
		t.Error("/healthz reports degraded after quoted-header assessments")
	}
}

// TestDelegatedJobIsOnePointGroup: in cluster mode a plain job runs as a
// one-point sweepgroup task — the cluster has no other kind that runs an
// assessment — and a parameter rejection inside that task fails the job
// with the message the synchronous path answers for the same request.
func TestDelegatedJobIsOnePointGroup(t *testing.T) {
	in := testCSV(t, 200, 4, 2, 9)
	const q = "?sigma=1e308&seed=1&chunk=32"
	_, plain := newTestServer(t, Config{CacheEntries: -1})
	status, _, out := post(t, plain, "/v1/assess"+q, in)
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(out, &env); err != nil || status != http.StatusBadRequest {
		t.Fatalf("sync %s: status %d body %s, want a 400 envelope", q, status, out)
	}

	_, ts := newTestServer(t, clusterConfig(t, 1))
	js := submitJob(t, ts, q, in)
	final := waitJob(t, ts, js.ID)
	if final.State != "failed" || final.Error != env.Error {
		t.Errorf("delegated job: state %s error %q, want failed with %q", final.State, final.Error, env.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Cluster *struct {
			TasksByKind map[string]struct {
				Done int `json:"done"`
			} `json:"tasks_by_kind"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil {
		t.Fatal("/v1/status has no cluster section")
	}
	if got := st.Cluster.TasksByKind["sweepgroup"].Done; got != 1 {
		t.Errorf("sweepgroup tasks done = %d, want 1: the job was not delegated as a one-point group", got)
	}
	if len(st.Cluster.TasksByKind) != 1 {
		t.Errorf("task kinds = %v, want only sweepgroup", st.Cluster.TasksByKind)
	}
}
