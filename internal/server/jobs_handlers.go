// The async half of the assessment API. A synchronous /v1/assess holds
// its HTTP connection for the whole battery runtime — fine for small
// uploads, a scaling wall for 20k-row streamed assessments. The jobs
// endpoints trade that connection for a submit/poll/result lifecycle:
//
//	POST   /v1/jobs             CSV + assess params -> 202 + job id
//	POST   /v1/jobs             multipart spec+data -> 202 sweep job
//	GET    /v1/jobs/{id}        status: state, progress, timestamps
//	GET    /v1/jobs/{id}/result the stored report (409 until done)
//	DELETE /v1/jobs/{id}        cancel (cooperatively) and remove
//
// A plain CSV body runs one assessment through the same assessOne the
// synchronous path uses; a multipart/form-data body carrying a
// "spec" JSON part and a "data" CSV part runs a whole parameter grid
// through the sweep planner's shared-scan plan, with per-grid-point
// progress. Either way the compute runs on the jobs.Manager's own
// bounded worker pool and a job's stored result is byte-identical to
// the synchronous responses for the same (CSV, params, seed) — the
// property TestJobResultMatchesSynchronousAssess pins, and the reason
// a recovered job after a crash serves the same bytes too.

package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"randpriv/internal/dataset"
	"randpriv/internal/jobs"
	"randpriv/internal/mat"
	"randpriv/internal/sweep"
)

// jobSpec is the durable form of an assessment job's parameters — the
// exact fields that can change a response byte, plus the upload digest
// the report embeds. It is what jobs.Manager persists and hands back to
// the runner after a restart. The embedded sweep.Params marshals its
// fields in the order and under the names stored specs use, so stored
// specs keep decoding and a plain job's spec bytes stay stable (plain
// jobs always carry ε, δ and sensitivity, which sweep.Params never
// omits).
type jobSpec struct {
	// Type discriminates the job kind: "" (pre-sweep specs and plain
	// assessment submissions) runs one assessment, "sweep" a whole grid.
	Type string `json:"type,omitempty"`
	sweep.Params
	// Sweep is the raw sweep spec for Type == "sweep", byte-exact as
	// submitted (the grid expansion is deterministic over these bytes,
	// so a recovered job re-plans the identical sweep). Chunk holds the
	// partition resolved at submit time — the spec may omit it, and the
	// plan must not move if the server default changes across a restart.
	Sweep  json.RawMessage `json:"sweep,omitempty"`
	Digest string          `json:"digest"`
}

// runJob is the jobs.Runner: it re-opens the spooled upload and pushes
// it through the shared compute path for its type — one assessment, or
// a sweep's whole grid. The workspace comes from a pool keyed to
// nothing — job workers are few and long-lived, so arenas are reused
// across jobs exactly like the request pool's per-worker ones.
func (s *Server) runJob(ctx context.Context, spec json.RawMessage, upload string, progress func(jobs.Progress)) ([]byte, error) {
	var sp jobSpec
	if err := json.Unmarshal(spec, &sp); err != nil {
		return nil, fmt.Errorf("server: decode job spec: %w", err)
	}
	ws := s.jobWS.Get().(*mat.Workspace)
	ws.Reset()
	defer s.jobWS.Put(ws)
	if sp.Type == jobTypeSweep {
		return s.runSweepJob(ctx, sp, upload, ws, progress)
	}
	// In cluster mode a plain assessment is delegated to the shared task
	// queue as a one-point sweepgroup task, where any attached worker
	// process may compute it. Delegation failing for infrastructure
	// reasons falls back to the local path — the results are
	// byte-identical either way. Delegated jobs report no chunk progress;
	// their chunks tick on whichever node runs them.
	if s.cluster != nil {
		plan, err := sweep.Compile(defaultRegistry, []sweep.Params{sp.Params})
		if err != nil {
			return nil, err
		}
		if envs, err, delegated := s.delegate(ctx, plan, upload, sp.Digest, nil); delegated {
			if err != nil {
				return nil, err
			}
			pt := envs[0].Points[0]
			if pt.Error != "" {
				return nil, errors.New(pt.Error)
			}
			return append(pt.Report, '\n'), nil
		}
	}
	src, err := dataset.OpenCSVChunks(upload, sp.Chunk)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	var chunkProg func(done, total int64)
	if progress != nil {
		chunkProg = func(done, total int64) {
			progress(jobs.Progress{ChunksDone: done, ChunksTotal: total})
		}
	}
	return s.assessOne(ctx, s.engine(ws), src, sp.Params, sp.Digest, chunkProg)
}

const jobTypeSweep = "sweep"

// runSweepJob re-expands and re-compiles the stored spec (both are
// deterministic over the spec bytes, so a crash-recovered job plans the
// identical sweep) and executes the shared-scan plan against the
// spooled upload. The executor shares the server's assessment LRU: a
// grid point warm from a standalone /v1/assess is served from cache,
// and every point computed here warms the cache for later requests.
func (s *Server) runSweepJob(ctx context.Context, sp jobSpec, upload string, ws *mat.Workspace, progress func(jobs.Progress)) ([]byte, error) {
	spec, err := sweep.ParseSpec(sp.Sweep)
	if err != nil {
		return nil, err
	}
	// The submit-time cap was already enforced; re-expanding unbounded
	// keeps a recovered job runnable even if the cap was since lowered.
	grid, err := spec.Expand(defaultRegistry, sp.Chunk, 0)
	if err != nil {
		return nil, err
	}
	plan, err := sweep.Compile(defaultRegistry, grid)
	if err != nil {
		return nil, err
	}
	src, err := dataset.OpenCSVChunks(upload, sp.Chunk)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	// In cluster mode the plan is partitioned at perturbation-group
	// boundaries and delegated to the task queue; any attached worker
	// executes its groups end-to-end and the coordinator merges the
	// envelopes in grid order. Delegation failing for infrastructure
	// reasons falls back to the local executor — the merged body is
	// byte-identical either way.
	if s.cluster != nil {
		if envs, err, delegated := s.delegate(ctx, plan, upload, sp.Digest, progress); delegated {
			if err != nil {
				return nil, err
			}
			return mergeGroups(plan, envs, sp.Digest, len(src.Names()), s.cache)
		}
	}
	cfg := sweep.ExecConfig{
		Env:    s.engine(ws),
		Digest: sp.Digest,
		Cache:  s.cache,
	}
	if progress != nil {
		cfg.Progress = func(done, total int64) {
			progress(jobs.Progress{PointsDone: done, PointsTotal: total})
		}
	}
	res, err := sweep.Execute(ctx, cfg, plan, src, src.Names())
	if err != nil {
		return nil, err
	}
	s.cfg.Log.Printf("randprivd: sweep over %s: %d grid points (%d duplicates collapsed), %d planned passes vs %d sequential",
		sp.Digest, res.GridPoints, res.CollapsedDuplicates, res.PlannedPasses, res.SequentialPasses)
	return sweep.MarshalResult(res)
}

// jobError wraps the jobs-endpoint handlers with the same uniform JSON
// error envelope and logging the compute endpoints use. Unlike post(),
// there is no pool pre-check (admission control is the job queue itself)
// and no response-committed tracking (these endpoints never stream).
func (s *Server) jobError(w http.ResponseWriter, r *http.Request, err error) {
	status := statusOf(err)
	s.cfg.Log.Printf("randprivd: %s %s -> %d: %v", r.Method, r.URL.Path, status, err)
	s.setRetryAfter(w, status)
	writeError(w, status, err)
}

// jobStatusJSON is the GET /v1/jobs/{id} response (and, minus the zero
// fields, the POST /v1/jobs response).
type jobStatusJSON struct {
	ID            string        `json:"id"`
	State         string        `json:"state"`
	Progress      jobs.Progress `json:"progress"`
	Error         string        `json:"error,omitempty"`
	DatasetSHA256 string        `json:"dataset_sha256"`
	Created       time.Time     `json:"created"`
	Started       *time.Time    `json:"started,omitempty"`
	Finished      *time.Time    `json:"finished,omitempty"`
	Result        string        `json:"result,omitempty"`
}

func toJobStatusJSON(snap jobs.Snapshot) jobStatusJSON {
	out := jobStatusJSON{
		ID:            snap.ID,
		State:         string(snap.State),
		Progress:      snap.Progress,
		Error:         snap.Error,
		DatasetSHA256: snap.Digest,
		Created:       snap.Created,
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		out.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		out.Finished = &t
	}
	if snap.State == jobs.StateDone {
		out.Result = "/v1/jobs/" + snap.ID + "/result"
	}
	return out
}

// handleJobsCollection serves /v1/jobs. GET lists jobs newest-first
// with state filtering and cursor pagination. POST submits: validate
// the parameters (the same allow-list as /v1/assess), spool the body
// through the SHA-256 digest, and hand the job to the manager. The
// response is 202 with the queued job's status; the upload connection
// is released as soon as the body is on disk, which is the whole point
// of the API.
func (s *Server) handleJobsCollection(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		s.handleJobsList(w, r)
		return
	}
	if mediaType, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err == nil && mediaType == "multipart/form-data" {
		s.handleSweepSubmit(w, r)
		return
	}
	p, err := s.decodeParams(r, assessParamKeys...)
	if err != nil {
		s.jobError(w, r, err)
		return
	}
	// Shed before spooling, like the sync endpoints' inflight pre-check:
	// a saturated job queue must refuse the upload work (a gigabyte of
	// disk writes plus a digest) too, not just the enqueue. Advisory —
	// Submit re-checks under lock.
	if s.jobs.Full() {
		s.jobError(w, r, jobs.ErrQueueFull)
		return
	}
	// The submit request itself is short-lived (spool only), so the
	// interactive request deadline is the right bound for it; the job's
	// compute is bounded by cancellation, not by this context.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	up, err := spoolBody(s.fs, s.cfg.SpoolDir, ctxReader{ctx: ctx, r: r.Body})
	if err != nil {
		s.jobError(w, r, err)
		return
	}
	defer up.Remove()

	spec, err := json.Marshal(jobSpec{Params: p.Params, Digest: up.digest})
	if err != nil {
		s.jobError(w, r, err)
		return
	}
	// SubmitFile adopts the spool file by rename — the upload is written
	// to disk once, not copied again into the job dir. The deferred
	// Remove then finds nothing, which is fine.
	snap, err := s.jobs.SubmitFile(spec, up.digest, up.path)
	if err != nil {
		s.jobError(w, r, err)
		return
	}
	s.writeJobAccepted(w, snap)
}

// Listing bounds: the page size must be small enough that one response
// never serializes an unbounded job backlog.
const (
	defaultJobsPageLimit = 100
	maxJobsPageLimit     = 1000
)

// jobListStates is the ?state= filter's allowed vocabulary — exactly
// the states GET /v1/jobs/{id} can report.
var jobListStates = map[string]bool{
	string(jobs.StateQueued):   true,
	string(jobs.StateRunning):  true,
	string(jobs.StateDone):     true,
	string(jobs.StateFailed):   true,
	string(jobs.StateCanceled): true,
}

// jobsCursor encodes a page boundary as an opaque token. The listing
// order is (created desc, id desc) — a strict total order, since ids
// are unique — so "strictly after the cursor" identifies the next page
// exactly even as new jobs arrive at the head of the list.
func jobsCursor(snap jobs.Snapshot) string {
	return base64.RawURLEncoding.EncodeToString(
		[]byte(fmt.Sprintf("%d|%s", snap.Created.UnixNano(), snap.ID)))
}

func parseJobsCursor(tok string) (createdNano int64, id string, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return 0, "", fmt.Errorf("server: parameter cursor=%q is not a valid cursor", tok)
	}
	sep := strings.IndexByte(string(raw), '|')
	if sep < 1 {
		return 0, "", fmt.Errorf("server: parameter cursor=%q is not a valid cursor", tok)
	}
	createdNano, perr := strconv.ParseInt(string(raw[:sep]), 10, 64)
	if perr != nil {
		return 0, "", fmt.Errorf("server: parameter cursor=%q is not a valid cursor", tok)
	}
	return createdNano, string(raw[sep+1:]), nil
}

// handleJobsList serves GET /v1/jobs: the job collection newest-first,
// optionally filtered by ?state=, paginated by ?limit= (default 100,
// max 1000) and the opaque ?cursor= token from the previous page's
// next_cursor. A response without next_cursor is the last page.
func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	for key, vals := range q {
		switch key {
		case "state", "limit", "cursor":
		default:
			s.jobError(w, r, badRequest(fmt.Errorf("server: parameter %q is not valid for this endpoint", key)))
			return
		}
		if len(vals) != 1 {
			s.jobError(w, r, badRequest(fmt.Errorf("server: parameter %q given %d times", key, len(vals))))
			return
		}
	}
	state := q.Get("state")
	if state != "" && !jobListStates[state] {
		s.jobError(w, r, badRequest(fmt.Errorf("server: parameter state=%q: want one of queued, running, done, failed, canceled", state)))
		return
	}
	limit := defaultJobsPageLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxJobsPageLimit {
			s.jobError(w, r, badRequest(fmt.Errorf("server: parameter limit=%q: want 1..%d", v, maxJobsPageLimit)))
			return
		}
		limit = n
	}
	var afterNano int64
	var afterID string
	cursored := false
	if tok := q.Get("cursor"); tok != "" {
		var err error
		afterNano, afterID, err = parseJobsCursor(tok)
		if err != nil {
			s.jobError(w, r, badRequest(err))
			return
		}
		cursored = true
	}

	resp := struct {
		Jobs       []jobStatusJSON `json:"jobs"`
		NextCursor string          `json:"next_cursor,omitempty"`
	}{Jobs: []jobStatusJSON{}}
	for _, snap := range s.jobs.List() {
		if state != "" && string(snap.State) != state {
			continue
		}
		if cursored {
			// Skip until strictly after the cursor position in the
			// (created desc, id desc) order.
			nano := snap.Created.UnixNano()
			if nano > afterNano || (nano == afterNano && snap.ID >= afterID) {
				continue
			}
		}
		if len(resp.Jobs) == limit {
			resp.NextCursor = jobsCursor(s.lastListed(resp.Jobs))
			break
		}
		resp.Jobs = append(resp.Jobs, toJobStatusJSON(snap))
	}
	writeJSON(w, resp)
}

// lastListed recovers the cursor fields of the last page entry. The
// status JSON carries Created verbatim, so the cursor round-trips.
func (s *Server) lastListed(page []jobStatusJSON) jobs.Snapshot {
	last := page[len(page)-1]
	return jobs.Snapshot{ID: last.ID, Created: last.Created}
}

func (s *Server) writeJobAccepted(w http.ResponseWriter, snap jobs.Snapshot) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	w.WriteHeader(http.StatusAccepted)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(toJobStatusJSON(snap))
}

// maxSweepSpecBytes caps the "spec" multipart part. A sweep spec is a
// few axes of numbers; a megabyte of it is a client bug, not a grid.
const maxSweepSpecBytes = 1 << 20

// handleSweepSubmit serves the multipart form of POST /v1/jobs: a
// "spec" part carrying the JSON sweep spec and a "data" part carrying
// the CSV upload. The spec is parsed, validated and size-checked
// against SweepMaxPoints at submit time — a spec is a request for
// grid × battery work, so an oversized or incoherent grid is a 400
// before a single data pass, not a failed job an hour later. Query
// parameters are rejected outright: every knob of a sweep lives in the
// spec, and a ?seed= silently ignored here would mislead the caller
// about what ran.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	if len(r.URL.Query()) > 0 {
		s.jobError(w, r, badRequest(fmt.Errorf("server: sweep submissions take no query parameters (all knobs live in the spec part)")))
		return
	}
	if s.jobs.Full() {
		s.jobError(w, r, jobs.ErrQueueFull)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	mr, err := r.MultipartReader()
	if err != nil {
		s.jobError(w, r, badRequest(fmt.Errorf("server: read multipart body: %v", err)))
		return
	}

	var specBytes []byte
	var up *upload
	defer func() {
		if up != nil {
			up.Remove()
		}
	}()
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.jobError(w, r, badRequest(fmt.Errorf("server: read multipart body: %v", err)))
			return
		}
		switch name := part.FormName(); name {
		case "spec":
			if specBytes != nil {
				s.jobError(w, r, badRequest(fmt.Errorf("server: multipart part %q given twice", name)))
				return
			}
			specBytes, err = io.ReadAll(io.LimitReader(part, maxSweepSpecBytes+1))
			if err != nil {
				s.jobError(w, r, badRequest(fmt.Errorf("server: read spec part: %v", err)))
				return
			}
			if len(specBytes) > maxSweepSpecBytes {
				s.jobError(w, r, badRequest(fmt.Errorf("server: spec part exceeds %d bytes", maxSweepSpecBytes)))
				return
			}
		case "data":
			if up != nil {
				s.jobError(w, r, badRequest(fmt.Errorf("server: multipart part %q given twice", name)))
				return
			}
			up, err = spoolBody(s.fs, s.cfg.SpoolDir, ctxReader{ctx: ctx, r: part})
			if err != nil {
				s.jobError(w, r, err)
				return
			}
		default:
			s.jobError(w, r, badRequest(fmt.Errorf("server: unknown multipart part %q (want \"spec\" and \"data\")", name)))
			return
		}
	}
	if specBytes == nil || up == nil {
		s.jobError(w, r, badRequest(fmt.Errorf("server: sweep submission needs both a \"spec\" and a \"data\" part")))
		return
	}

	spec, err := sweep.ParseSpec(specBytes)
	if err != nil {
		s.jobError(w, r, err)
		return
	}
	// Expansion both validates the spec and enforces the grid-size cap;
	// the grid itself is discarded — the runner re-expands from the
	// stored bytes, deterministically.
	if _, err := spec.Expand(defaultRegistry, s.cfg.ChunkRows, s.cfg.SweepMaxPoints); err != nil {
		s.jobError(w, r, err)
		return
	}
	chunk := spec.Chunk
	if chunk == 0 {
		chunk = s.cfg.ChunkRows
	}
	stored, err := json.Marshal(jobSpec{Type: jobTypeSweep, Params: sweep.Params{Chunk: chunk}, Sweep: json.RawMessage(specBytes), Digest: up.digest})
	if err != nil {
		s.jobError(w, r, err)
		return
	}
	snap, err := s.jobs.SubmitFile(stored, up.digest, up.path)
	if err != nil {
		s.jobError(w, r, err)
		return
	}
	s.writeJobAccepted(w, snap)
}

// handleJobsItem serves GET /v1/jobs/{id}, GET /v1/jobs/{id}/result and
// DELETE /v1/jobs/{id}. Query parameters are rejected outright — every
// knob of a job is fixed at submit time, and a ?seed= here silently
// ignored would mislead the caller about what ran.
func (s *Server) handleJobsItem(w http.ResponseWriter, r *http.Request) {
	if len(r.URL.Query()) > 0 {
		s.jobError(w, r, badRequest(fmt.Errorf("server: job endpoints take no query parameters")))
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	parts := strings.Split(rest, "/")
	switch {
	case len(parts) == 1 && parts[0] != "":
		id := parts[0]
		switch r.Method {
		case http.MethodGet:
			snap, err := s.jobs.Get(id)
			if err != nil {
				s.jobError(w, r, err)
				return
			}
			writeJSON(w, toJobStatusJSON(snap))
		case http.MethodDelete:
			if err := s.jobs.Delete(id); err != nil {
				s.jobError(w, r, err)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			w.Header().Set("Allow", "GET, DELETE")
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("server: use GET or DELETE"))
		}
	case len(parts) == 2 && parts[1] == "result":
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("server: use GET"))
			return
		}
		body, err := s.jobs.Result(parts[0])
		if err != nil {
			s.jobError(w, r, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	default:
		writeError(w, http.StatusNotFound, jobs.ErrNotFound)
	}
}
