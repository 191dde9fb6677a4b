package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
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
// a cluster-mode node — with 1 and with 2 claim loops, so delegated jobs
// run on real claim loops — produces byte-identical /v1/assess responses
// and job results to a single-process server, for both memory and
// streamed batteries.
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

// getClusterStatus reads the cluster section of GET /v1/status.
func getClusterStatus(t *testing.T, ts *httptest.Server) *clusterStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Cluster *clusterStatus `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil {
		t.Fatal("/v1/status has no cluster section")
	}
	return st.Cluster
}

// TestClusterSyncAssessRunsLocally: a synchronous /v1/assess runs on the
// local engine in cluster mode exactly as on a single-process server,
// and never touches the task queue — with one embedded claim loop, and
// on a coordinator with no claim loop and no worker at all. Every query
// (the default stream battery, a one-attack stream battery, memory
// mode) over every upload (including a header that quotes a comma)
// answers 200, X-Cache: miss and the single-process bytes within the
// client's timeout, and afterwards /v1/status shows no task of any kind
// and an untripped breaker.
func TestClusterSyncAssessRunsLocally(t *testing.T) {
	raw := testCSV(t, 240, 4, 2, 9)
	uploads := map[string][]byte{
		"plain":         raw,
		"quoted-header": append([]byte(`"a,0",b1,b2,b3`), raw[bytes.IndexByte(raw, '\n'):]...),
	}
	queries := []string{
		"?sigma=5&seed=3&chunk=32&stream=1",
		"?sigma=5&seed=4&chunk=32&stream=1&attacks=pcadr",
		"?sigma=5&seed=5&chunk=32",
	}
	_, plain := newTestServer(t, Config{})
	golden := make(map[string][]byte)
	for name, in := range uploads {
		for _, q := range queries {
			status, _, body := post(t, plain, "/v1/assess"+q, in)
			if status != http.StatusOK {
				t.Fatalf("single-process %s %s: status %d, body %s", name, q, status, body)
			}
			golden[name+q] = body
		}
	}

	client := &http.Client{Timeout: 10 * time.Second}
	for _, workers := range []int{1, -1} {
		t.Run(fmt.Sprintf("cluster-workers=%d", workers), func(t *testing.T) {
			_, ts := newTestServer(t, clusterConfig(t, workers))
			for name, in := range uploads {
				for _, q := range queries {
					resp, err := client.Post(ts.URL+"/v1/assess"+q, "text/csv", bytes.NewReader(in))
					if err != nil {
						t.Fatalf("%s %s: %v", name, q, err)
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Fatalf("%s %s: read body: %v", name, q, err)
					}
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s %s: status %d, body %s", name, q, resp.StatusCode, body)
					}
					if got := resp.Header.Get("X-Cache"); got != "miss" {
						t.Errorf("%s %s: X-Cache = %q, want miss", name, q, got)
					}
					if !bytes.Equal(body, golden[name+q]) {
						t.Errorf("%s %s: cluster response differs from the single-process golden", name, q)
					}
				}
			}
			st := getClusterStatus(t, ts)
			if st.TasksPending != 0 || st.TasksClaimed != 0 || st.TasksDone != 0 || len(st.TasksByKind) != 0 {
				t.Errorf("task queue after sync assessments: pending=%d claimed=%d done=%d kinds=%v, want no task at all",
					st.TasksPending, st.TasksClaimed, st.TasksDone, st.TasksByKind)
			}
			if st.BreakerTrips != 0 || st.Degraded {
				t.Errorf("breaker_trips = %d, degraded = %v; want 0 and false", st.BreakerTrips, st.Degraded)
			}
		})
	}
}

// TestClusterFailsLeftoverTaskKinds: an older binary may have left a
// sketch or score task in the cluster directory. This binary registers
// a runner for sweepgroup only, so its claim loop completes each
// leftover with the worker's terminal "no runner" error, on which the
// older coordinator that enqueued it falls back to its serial path.
func TestClusterFailsLeftoverTaskKinds(t *testing.T) {
	dir := t.TempDir()
	pending := filepath.Join(dir, "tasks", "pending")
	if err := os.MkdirAll(pending, 0o755); err != nil {
		t.Fatal(err)
	}
	hexOf := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:])
	}
	// The task files as an older binary wrote them.
	leftovers := map[string]string{
		"sketch": `{"id":"%s","type":"sketch","shard_digest":"%s","chunk":32,"shard":1}`,
		"score":  `{"id":"%s","type":"score","spec":{"attack":"pcadr"},"digest":"%s"}`,
	}
	ids := make(map[string]string)
	for kind, format := range leftovers {
		id := hexOf("task-" + kind)
		body := fmt.Sprintf(format, id, hexOf("blob-"+kind))
		if err := os.WriteFile(filepath.Join(pending, id+".json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		ids[kind] = id
	}

	s, _ := newTestServer(t, Config{ClusterDir: dir, NodeID: "new-node", ClusterWorkers: 1})
	st := s.cluster.Store()
	for kind, id := range ids {
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, msg, ok, err := st.TaskResult(id)
			if err != nil {
				t.Fatalf("%s task: %v", kind, err)
			}
			if ok {
				if want := fmt.Sprintf("cluster: no runner for task type %q", kind); msg != want {
					t.Errorf("%s task error = %q, want %q", kind, msg, want)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("leftover %s task never completed", kind)
			}
			time.Sleep(5 * time.Millisecond)
		}
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
