package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"randpriv/internal/jobs"
)

// jobStatus decodes a GET /v1/jobs/{id} response.
type jobStatus struct {
	ID            string        `json:"id"`
	State         string        `json:"state"`
	Progress      jobs.Progress `json:"progress"`
	Error         string        `json:"error"`
	DatasetSHA256 string        `json:"dataset_sha256"`
	Result        string        `json:"result"`
}

func submitJob(t testing.TB, ts *httptest.Server, query string, body []byte) jobStatus {
	t.Helper()
	status, hdr, out := post(t, ts, "/v1/jobs"+query, body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %s", status, out)
	}
	var js jobStatus
	if err := json.Unmarshal(out, &js); err != nil {
		t.Fatalf("decode submit response: %v (%s)", err, out)
	}
	if js.ID == "" || js.State != "queued" {
		t.Fatalf("submit response = %+v, want queued with id", js)
	}
	if loc := hdr.Get("Location"); loc != "/v1/jobs/"+js.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, js.ID)
	}
	return js
}

func getJob(t testing.TB, ts *httptest.Server, id string) (int, jobStatus) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	var js jobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(out, &js); err != nil {
			t.Fatalf("decode status: %v (%s)", err, out)
		}
	}
	return resp.StatusCode, js
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t testing.TB, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		status, js := getJob(t, ts, id)
		if status != http.StatusOK {
			t.Fatalf("poll status = %d", status)
		}
		switch js.State {
		case "done", "failed", "canceled":
			return js
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after deadline", id, js.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getResult(t testing.TB, ts *httptest.Server, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func deleteJob(t testing.TB, ts *httptest.Server, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE job: %v", err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestJobResultMatchesSynchronousAssess is the core async contract: for
// every battery mode, the stored job result is byte-identical to the
// synchronous /v1/assess response for the same CSV, params and seed —
// and the progress accounting lands exactly on its precomputed total
// (done == total pins the one-point plan's PlannedPasses against the
// real pass structure).
func TestJobResultMatchesSynchronousAssess(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1})
	in := testCSV(t, 240, 4, 2, 9)
	for _, q := range []string{
		"?sigma=5&seed=3&chunk=64",
		"?sigma=5&seed=3&chunk=64&scheme=correlated",
		"?sigma=5&seed=3&chunk=64&stream=1",
		"?sigma=5&seed=3&chunk=64&stream=1&scheme=correlated",
	} {
		syncStatus, _, syncBody := post(t, ts, "/v1/assess"+q, in)
		if syncStatus != http.StatusOK {
			t.Fatalf("%s: sync status = %d, body %s", q, syncStatus, syncBody)
		}
		js := submitJob(t, ts, q, in)
		final := waitJob(t, ts, js.ID)
		if final.State != "done" {
			t.Fatalf("%s: job state = %s (error %q)", q, final.State, final.Error)
		}
		if final.Progress.ChunksTotal == 0 || final.Progress.ChunksDone != final.Progress.ChunksTotal {
			t.Errorf("%s: progress = %d/%d, want equal and non-zero",
				q, final.Progress.ChunksDone, final.Progress.ChunksTotal)
		}
		if final.Result != "/v1/jobs/"+js.ID+"/result" {
			t.Errorf("%s: result link = %q", q, final.Result)
		}
		status, jobBody := getResult(t, ts, js.ID)
		if status != http.StatusOK {
			t.Fatalf("%s: result status = %d, body %s", q, status, jobBody)
		}
		if !bytes.Equal(syncBody, jobBody) {
			t.Errorf("%s: job result differs from synchronous assess:\nsync: %s\njob:  %s", q, syncBody, jobBody)
		}
	}
}

func TestJobNotFoundAndConflict(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, _ := getJob(t, ts, "doesnotexist"); status != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", status)
	}
	if status, _ := getResult(t, ts, "doesnotexist"); status != http.StatusNotFound {
		t.Errorf("GET unknown result = %d, want 404", status)
	}
	if status := deleteJob(t, ts, "doesnotexist"); status != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %d, want 404", status)
	}

	// A failed job exists but has no result: 409, with the failure
	// message in the envelope.
	js := submitJob(t, ts, "?sigma=5&seed=1", []byte("a,b\n1,2\n3\n"))
	final := waitJob(t, ts, js.ID)
	if final.State != "failed" || final.Error == "" {
		t.Fatalf("malformed-CSV job = %+v, want failed with error", final)
	}
	status, out := getResult(t, ts, js.ID)
	if status != http.StatusConflict {
		t.Errorf("result of failed job = %d (body %s), want 409", status, out)
	}
	if !bytes.Contains(out, []byte(`"error"`)) {
		t.Errorf("409 body missing error envelope: %s", out)
	}
}

func TestJobSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1 << 20})
	in := testCSV(t, 20, 3, 1, 1)
	for _, q := range []string{
		"?sigma=0", "?sigma=NaN", "?scheme=banana", "?chunk=0", "?seed=abc",
		"?attack=pcadr", // an attack-endpoint key: jobs run assessments only
		"?correlated=1",
	} {
		status, _, out := post(t, ts, "/v1/jobs"+q, in)
		if status != http.StatusBadRequest {
			t.Errorf("submit%s = %d (body %s), want 400", q, status, out)
		}
	}
	big := testCSV(t, 20000, 8, 2, 1)
	if status, _, _ := post(t, ts, "/v1/jobs", big); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit = %d, want 413", status)
	}
}

func TestJobEndpointMethodsAndPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// GET on the collection is the listing endpoint (covered in
	// TestJobsList); only genuinely unsupported methods 405 here.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	put, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	put.Body.Close()
	if put.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/jobs = %d, want 405", put.StatusCode)
	}
	if status, _, _ := post(t, ts, "/v1/jobs/someid", nil); status != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/jobs/{id} = %d, want 405", status)
	}
	if status, _, _ := post(t, ts, "/v1/jobs/someid/result", nil); status != http.StatusMethodNotAllowed {
		t.Errorf("POST result = %d, want 405", status)
	}
	for _, path := range []string{"/v1/jobs/", "/v1/jobs/a/b/c", "/v1/jobs/a/notresult"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	// Query parameters are rejected on item endpoints.
	resp, err := http.Get(ts.URL + "/v1/jobs/someid?seed=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET with query = %d, want 400", resp.StatusCode)
	}
}

// jobsPage decodes one GET /v1/jobs response page.
type jobsPage struct {
	Jobs       []jobStatus `json:"jobs"`
	NextCursor string      `json:"next_cursor"`
}

func listJobs(t testing.TB, ts *httptest.Server, query string) (int, jobsPage, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs" + query)
	if err != nil {
		t.Fatalf("GET /v1/jobs%s: %v", query, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	var page jobsPage
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(out, &page); err != nil {
			t.Fatalf("decode listing: %v (%s)", err, out)
		}
	}
	return resp.StatusCode, page, out
}

// TestJobsList covers the collection listing: newest-first order, the
// state filter, and limit+cursor pagination walking the full set
// without duplicates or gaps.
func TestJobsList(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 2})

	// Empty store: an empty array, not null, and no cursor.
	status, page, out := listJobs(t, ts, "")
	if status != http.StatusOK {
		t.Fatalf("empty listing status = %d (body %s)", status, out)
	}
	if page.Jobs == nil || len(page.Jobs) != 0 || page.NextCursor != "" {
		t.Fatalf("empty listing = %s, want jobs:[] and no next_cursor", out)
	}

	in := testCSV(t, 24, 3, 2, 5)
	ids := make([]string, 0, 5)
	for seed := 1; seed <= 5; seed++ {
		js := submitJob(t, ts, fmt.Sprintf("?sigma=5&seed=%d&chunk=8", seed), in)
		ids = append(ids, js.ID)
		waitJob(t, ts, js.ID)
	}

	status, page, out = listJobs(t, ts, "")
	if status != http.StatusOK {
		t.Fatalf("listing status = %d (body %s)", status, out)
	}
	if len(page.Jobs) != 5 || page.NextCursor != "" {
		t.Fatalf("listing = %d jobs, cursor %q; want all 5 on one page", len(page.Jobs), page.NextCursor)
	}
	// Newest-first: the last submitted job leads.
	if page.Jobs[0].ID != ids[4] || page.Jobs[4].ID != ids[0] {
		t.Errorf("order = %v, want newest first (submitted %v)", pageIDs(page), ids)
	}
	for _, js := range page.Jobs {
		if js.State != "done" {
			t.Errorf("job %s state = %s in listing, want done", js.ID, js.State)
		}
	}

	// State filter: everything is done, so running matches nothing and
	// done matches all.
	if _, p, _ := listJobs(t, ts, "?state=running"); len(p.Jobs) != 0 {
		t.Errorf("state=running matched %d done jobs", len(p.Jobs))
	}
	if _, p, _ := listJobs(t, ts, "?state=done"); len(p.Jobs) != 5 {
		t.Errorf("state=done matched %d jobs, want 5", len(p.Jobs))
	}

	// Pagination: limit=2 walks the set in three pages with no overlap.
	var walked []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 3 {
			t.Fatalf("pagination did not terminate; walked %v", walked)
		}
		q := "?limit=2"
		if cursor != "" {
			q += "&cursor=" + cursor
		}
		status, p, out := listJobs(t, ts, q)
		if status != http.StatusOK {
			t.Fatalf("page %d status = %d (body %s)", pages, status, out)
		}
		walked = append(walked, pageIDs(p)...)
		if p.NextCursor == "" {
			break
		}
		cursor = p.NextCursor
	}
	if len(walked) != 5 {
		t.Fatalf("pagination walked %d jobs (%v), want 5", len(walked), walked)
	}
	seen := make(map[string]bool, len(walked))
	for _, id := range walked {
		if seen[id] {
			t.Errorf("pagination returned job %s twice", id)
		}
		seen[id] = true
	}
	for i, id := range walked {
		if want := ids[4-i]; id != want {
			t.Errorf("walk position %d = %s, want %s (newest-first across pages)", i, id, want)
		}
	}
}

// TestJobsListValidation pins the 400 surface of the listing endpoint,
// including the stable error code.
func TestJobsListValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{
		"?state=sideways",  // unknown state
		"?limit=0",         // below minimum
		"?limit=-3",        // negative
		"?limit=abc",       // not a number
		"?limit=1001",      // above maximum
		"?cursor=%3F%3F",   // undecodable cursor
		"?cursor=aGVsbG8",  // decodes, but not nano|id shaped
		"?seed=7",          // unknown key
		"?limit=2&limit=3", // repeated key
	} {
		status, _, out := listJobs(t, ts, q)
		if status != http.StatusBadRequest {
			t.Errorf("GET /v1/jobs%s = %d (body %s), want 400", q, status, out)
			continue
		}
		var env struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.Unmarshal(out, &env); err != nil || env.Code != "param_invalid" || env.Error == "" {
			t.Errorf("GET /v1/jobs%s envelope = %s (%v), want code param_invalid", q, out, err)
		}
	}
}

func pageIDs(p jobsPage) []string {
	ids := make([]string, len(p.Jobs))
	for i, js := range p.Jobs {
		ids[i] = js.ID
	}
	return ids
}

// slowJobCSV is big enough (with chunk=4) that a streamed assessment
// runs for a while, giving the tests a window to observe/cancel it.
func slowJobCSV(t testing.TB) []byte {
	t.Helper()
	return testCSV(t, 20000, 6, 2, 11)
}

func TestJobCancellationMidStream(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1})
	js := submitJob(t, ts, "?sigma=5&seed=3&stream=1&chunk=4", slowJobCSV(t))

	// Wait for the worker to pick it up, then cancel mid-stream.
	deadline := time.Now().Add(time.Minute)
	for {
		_, cur := getJob(t, ts, js.ID)
		if cur.State == "running" {
			break
		}
		if cur.State == "done" || time.Now().After(deadline) {
			t.Fatalf("job reached %s before it could be canceled; enlarge the input", cur.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	start := time.Now()
	if status := deleteJob(t, ts, js.ID); status != http.StatusNoContent {
		t.Fatalf("DELETE running job = %d, want 204", status)
	}
	if status, _ := getJob(t, ts, js.ID); status != http.StatusNotFound {
		t.Errorf("GET after delete = %d, want 404", status)
	}
	// The canceled worker must free up promptly (the cooperative-cancel
	// contract: within a chunk boundary, not after finishing the whole
	// battery) and serve the next job.
	quick := submitJob(t, ts, "?sigma=5&seed=3&chunk=32", testCSV(t, 60, 3, 1, 2))
	final := waitJob(t, ts, quick.ID)
	if final.State != "done" {
		t.Fatalf("job after cancel = %s (error %q), want done", final.State, final.Error)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("worker took %v to free after cancel", elapsed)
	}
}

func TestJobQueueFullReturns429(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1, JobQueueDepth: -1})
	slow := slowJobCSV(t)
	submitJob(t, ts, "?sigma=5&seed=3&stream=1&chunk=4", slow) // occupies the only slot
	status, _, out := post(t, ts, "/v1/jobs?sigma=5&seed=4", slow)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d (body %s), want 429", status, out)
	}
}

// TestJobRecoveryAfterRestart kills a server with one job mid-run and
// one queued, restarts over the same state dir, and requires both to
// finish with results byte-identical to the synchronous path — the
// durability half of the async contract.
func TestJobRecoveryAfterRestart(t *testing.T) {
	jobsDir := t.TempDir()
	slow := slowJobCSV(t)
	small := testCSV(t, 150, 4, 2, 5)
	const slowQ = "?sigma=5&seed=3&stream=1&chunk=4"
	const smallQ = "?sigma=4&seed=7&chunk=32"

	_, tsA := newTestServer(t, Config{JobsDir: jobsDir, JobWorkers: 1})
	running := submitJob(t, tsA, slowQ, slow)
	queued := submitJob(t, tsA, smallQ, small)
	deadline := time.Now().Add(time.Minute)
	for {
		_, cur := getJob(t, tsA, running.ID)
		if cur.State == "running" {
			break
		}
		if cur.State == "done" || time.Now().After(deadline) {
			t.Fatalf("slow job reached %s before the kill; enlarge the input", cur.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// "Kill" the process: the running job is canceled by shutdown, and
	// its durable state must survive as re-runnable.
	sA, _ := tsA.Config.Handler.(*Server)
	tsA.Close()
	sA.Close()

	_, tsB := newTestServer(t, Config{JobsDir: jobsDir, JobWorkers: 1, CacheEntries: -1})
	for _, tc := range []struct {
		id, query string
		body      []byte
	}{
		{running.ID, slowQ, slow},
		{queued.ID, smallQ, small},
	} {
		final := waitJob(t, tsB, tc.id)
		if final.State != "done" {
			t.Fatalf("recovered job %s = %s (error %q), want done", tc.id, final.State, final.Error)
		}
		status, jobBody := getResult(t, tsB, tc.id)
		if status != http.StatusOK {
			t.Fatalf("recovered result status = %d", status)
		}
		syncStatus, _, syncBody := post(t, tsB, "/v1/assess"+tc.query, tc.body)
		if syncStatus != http.StatusOK {
			t.Fatalf("sync reference status = %d, body %s", syncStatus, syncBody)
		}
		if !bytes.Equal(jobBody, syncBody) {
			t.Errorf("job %s: recovered result differs from synchronous assess:\njob:  %s\nsync: %s",
				tc.id, jobBody, syncBody)
		}
	}
}

// TestJobTTLExpiry: finished jobs disappear (status and result) after
// the configured retention.
func TestJobTTLExpiry(t *testing.T) {
	_, ts := newTestServer(t, Config{JobTTL: 150 * time.Millisecond})
	js := submitJob(t, ts, "?sigma=5&seed=1&chunk=32", testCSV(t, 60, 3, 1, 4))
	waitJob(t, ts, js.ID)
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _ := getJob(t, ts, js.ID)
		if status == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job not expired after TTL")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestJobsDoNotStarveInteractiveRequests pins the two-pool design: with
// the single job worker saturated by a long assessment, a synchronous
// /v1/assess must still be served by the request pool.
func TestJobsDoNotStarveInteractiveRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1, Workers: 2})
	submitJob(t, ts, "?sigma=5&seed=3&stream=1&chunk=4", slowJobCSV(t))
	status, _, out := post(t, ts, "/v1/assess?sigma=5&seed=3&chunk=32", testCSV(t, 100, 4, 2, 8))
	if status != http.StatusOK {
		t.Fatalf("interactive assess under job load = %d (body %s), want 200", status, out)
	}
	var rep struct {
		Rows int64 `json:"rows"`
	}
	if err := json.Unmarshal(out, &rep); err != nil || rep.Rows != 100 {
		t.Errorf("interactive response rows = %d (err %v), want 100", rep.Rows, err)
	}
}

// TestStatusJobGauges: the status endpoint reports the job queue.
func TestStatusJobGauges(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1})
	js := submitJob(t, ts, "?sigma=5&seed=1&chunk=32", testCSV(t, 60, 3, 1, 4))
	waitJob(t, ts, js.ID)
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		JobWorkers   int `json:"job_workers"`
		JobsFinished int `json:"jobs_finished"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.JobWorkers != 1 || h.JobsFinished < 1 {
		t.Errorf("/v1/status job gauges = %+v, want workers=1, finished>=1", h)
	}
}

// BenchmarkJobSubmit tracks the submit path (spool + persist, no
// compute): the latency a client pays before getting its job id back.
func BenchmarkJobSubmit(b *testing.B) {
	s, _ := newTestServer(b, Config{JobWorkers: 1, JobQueueDepth: 1 << 30})
	in := testCSV(b, 512, 6, 2, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs?sigma=5&seed=3", bytes.NewReader(in))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			b.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
		}
	}
}
