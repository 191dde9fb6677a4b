// Package server exposes the library's privacy-assessment pipeline as a
// long-running HTTP service (command randprivd). The endpoints mirror the
// CLI verbs over streamed CSV bodies:
//
//	POST /v1/perturb  — disguise an uploaded data set, CSV in → CSV out
//	POST /v1/attack   — reconstruct an uploaded disguised set, CSV in → CSV out
//	POST /v1/assess   — perturb + full attack battery, CSV in → JSON report
//	GET  /healthz     — liveness and the cluster's degraded flag
//	GET  /v1/status   — pool, cache, job and cluster gauges
//	GET  /v1/schemes  — the schemes and attacks this build serves
//
// Three mechanisms make it a service rather than a CLI in a loop:
//
//   - Out-of-core data plane: bodies are spooled to disk, decoded from
//     CSV once by the validation pass into a float64 spool, and every
//     later pass reads that spool in fixed-size chunks, so memory is
//     O(chunk + m²) no matter how large the upload is.
//   - Bounded worker pool: compute runs on Workers goroutines behind a
//     QueueDepth-deep queue with per-request deadlines; overload returns
//     429 instead of degrading everyone.
//   - Assessment cache: an LRU keyed on (scheme, σ, seed, chunking,
//     dataset digest) memoizes finished reports, so the repeated
//     "assess before you publish" loop is served without recompute.
//
// Determinism: a request carries its own seed and builds its own RNG via
// sweep.PointRNG (sweep.TrialSeed's SplitMix64 finalizer), so identical
// requests with identical seeds produce byte-identical responses at any
// concurrency — the property the -race load test pins.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"randpriv/internal/cluster"
	"randpriv/internal/dataset"
	"randpriv/internal/faultfs"
	"randpriv/internal/jobs"
	"randpriv/internal/mat"
	"randpriv/internal/sweep"
)

// Config tunes the service; zero values mean the documented defaults.
type Config struct {
	// Workers is the compute pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth is how many requests may wait beyond the running ones
	// before new ones are rejected with 429 (default: 64).
	QueueDepth int
	// MaxBodyBytes caps the uploaded CSV size; beyond it the request
	// fails with 413 (default: 1 GiB).
	MaxBodyBytes int64
	// RequestTimeout is the per-request deadline covering queue wait and
	// compute (default: 60s). Expired requests get 503.
	RequestTimeout time.Duration
	// CacheEntries is the assessment LRU capacity (default: 128); any
	// negative value disables caching.
	CacheEntries int
	// ChunkRows is the default streaming chunk size (default: 4096);
	// requests may override it with ?chunk=.
	ChunkRows int
	// SpoolDir is where request bodies are spooled (default: os.TempDir()).
	SpoolDir string
	// JobsDir is the async-job state directory; jobs submitted to
	// POST /v1/jobs persist here and are recovered after a restart
	// (default: <os.TempDir()>/randprivd-jobs).
	JobsDir string
	// JobWorkers is the background job pool size (default:
	// max(1, GOMAXPROCS/2)). It is deliberately separate from Workers:
	// queued assessments must not starve the interactive endpoints.
	JobWorkers int
	// JobQueueDepth caps how many jobs may wait beyond the running ones
	// before POST /v1/jobs returns 429 (default: 64; negative means no
	// queue slots beyond the workers).
	JobQueueDepth int
	// JobTTL expires finished jobs and their stored results this long
	// after completion (default: 24h; negative keeps them forever).
	JobTTL time.Duration
	// SweepMaxPoints caps how many grid points a sweep spec may expand
	// to; a larger spec is rejected with 400 before any data work
	// (default: 4096; negative removes the cap).
	SweepMaxPoints int
	// ClusterDir, when set, turns the server into a cluster coordinator
	// over this shared state directory: jobs and sweeps are delegated to
	// the task queue, every node shares one result cache, and /v1/status
	// reports per-node gauges. Empty (the default) keeps the server
	// single-process.
	ClusterDir string
	// NodeID is this process's cluster identity (filename-safe; default:
	// hostname-pid). Only meaningful with ClusterDir.
	NodeID string
	// ClusterWorkers is how many claim loops this coordinator embeds, so
	// a solo node still executes its own delegated work (default: 1;
	// negative means none — pure coordination).
	ClusterWorkers int
	// ClusterLeaseTTL is how stale a node's heartbeat may grow before
	// its task leases are reclaimed by other nodes (default: 5s).
	ClusterLeaseTTL time.Duration
	// FS is the filesystem handle the durable planes run on — the spool,
	// the jobs state dir, and the cluster state dir. Nil uses the OS
	// passthrough; the chaos suite injects storage faults through it.
	FS faultfs.FS
	// Log receives request-level diagnostics; nil uses log.Default().
	Log *log.Logger
}

const (
	defaultQueueDepth   = 64
	defaultMaxBodyBytes = 1 << 30
	defaultTimeout      = 60 * time.Second
	defaultChunkRows    = 4096
	defaultCacheEntries = 128
	defaultJobTTL       = 24 * time.Hour
	defaultSweepPoints  = 4096
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = defaultQueueDepth
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = defaultMaxBodyBytes
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = defaultTimeout
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = defaultCacheEntries
	}
	if c.ChunkRows <= 0 {
		c.ChunkRows = defaultChunkRows
	}
	if c.SpoolDir == "" {
		c.SpoolDir = os.TempDir()
	}
	if c.JobsDir == "" {
		c.JobsDir = filepath.Join(os.TempDir(), "randprivd-jobs")
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = runtime.GOMAXPROCS(0) / 2
		if c.JobWorkers < 1 {
			c.JobWorkers = 1
		}
	}
	if c.JobQueueDepth == 0 {
		c.JobQueueDepth = defaultQueueDepth
	}
	// Negative passes through: jobs.NewManager reads it as "no queue
	// slots beyond the workers" (its own 0 means "use the default").
	if c.JobTTL == 0 {
		c.JobTTL = defaultJobTTL
	}
	if c.JobTTL < 0 {
		c.JobTTL = 0 // jobs.Manager: 0 disables expiry
	}
	if c.SweepMaxPoints == 0 {
		c.SweepMaxPoints = defaultSweepPoints
	}
	if c.SweepMaxPoints < 0 {
		c.SweepMaxPoints = 0 // sweep.Expand: 0 means unbounded
	}
	if c.ClusterDir != "" {
		if c.NodeID == "" {
			c.NodeID = defaultNodeID()
		}
		if c.ClusterLeaseTTL <= 0 {
			c.ClusterLeaseTTL = 5 * time.Second
		}
		// ClusterWorkers passes through: the coordinator reads 0 as "one
		// embedded worker" and negative as "none".
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	return c
}

// Server is the randprivd HTTP service. Create with New, serve via
// ServeHTTP (it implements http.Handler), and Close when done.
type Server struct {
	cfg     Config
	fs      faultfs.FS
	pool    *workerPool
	cache   *lruCache
	jobs    *jobs.Manager
	jobWS   sync.Pool // *mat.Workspace scratch arenas for job workers
	cluster *cluster.Coordinator
	// breaker is the delegation circuit breaker: consecutive cluster
	// infrastructure failures open it, and while it is open every
	// delegable computation takes the byte-identical serial path
	// immediately instead of probing a sick cluster. /healthz reports
	// the open state as degraded: true. Nil on single-process servers.
	breaker *cluster.Breaker
	mux     *http.ServeMux
}

// ErrSpoolDir, ErrJobsDir and ErrClusterDir mark a New that failed
// because Config.SpoolDir, JobsDir or ClusterDir could not be created or
// opened.
var (
	ErrSpoolDir   = errors.New("server: cannot create spool dir")
	ErrJobsDir    = errors.New("server: cannot open jobs dir")
	ErrClusterDir = errors.New("server: cannot open cluster dir")
)

// New builds a Server from cfg (zero-value fields take defaults). It
// creates the spool dir, and the jobs and cluster state dirs, if they
// are missing; the error is one of them failing to open, wrapping the
// matching ErrSpoolDir, ErrJobsDir or ErrClusterDir — everything else is
// infallible.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	fsys := faultfs.Default(cfg.FS)
	// Created here, like the state dirs, so that a missing spool dir
	// fails startup instead of every upload.
	if err := fsys.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
		return nil, fmt.Errorf("%w %s: %w", ErrSpoolDir, cfg.SpoolDir, err)
	}
	s := &Server{
		cfg:   cfg,
		fs:    fsys,
		pool:  newWorkerPool(cfg.Workers, cfg.QueueDepth),
		cache: newLRUCache(cfg.CacheEntries),
		mux:   http.NewServeMux(),
	}
	s.jobWS.New = func() any { return mat.NewWorkspace() }
	// The cluster must be up before the jobs manager: recovery re-runs
	// persisted jobs immediately, and those runs read s.cluster.
	if cfg.ClusterDir != "" {
		if err := s.openCluster(); err != nil {
			s.pool.Close()
			return nil, err
		}
	}
	mgr, err := jobs.NewManager(jobs.Options{
		Dir:        cfg.JobsDir,
		Workers:    cfg.JobWorkers,
		QueueDepth: cfg.JobQueueDepth,
		TTL:        cfg.JobTTL,
		FS:         cfg.FS,
		Log:        cfg.Log,
	}, s.runJob)
	if err != nil {
		if s.cluster != nil {
			s.cluster.Close()
		}
		s.pool.Close()
		return nil, fmt.Errorf("%w %s: %w", ErrJobsDir, cfg.JobsDir, err)
	}
	s.jobs = mgr
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.pattern, allowMethods(rt.methods, rt.handler))
	}
	return s, nil
}

// route is one row of the server's declarative route table: the mux
// pattern, the HTTP methods it accepts (the 405 Allow header is built
// from them), the handler, and the operations it serves as they are
// documented in docs/API.md — the inventory TestRouteInventoryMatchesDocs
// checks against, so a route added without documentation (or documented
// without a route) fails a test instead of drifting silently.
type route struct {
	pattern string
	methods []string
	handler http.HandlerFunc
	docs    []string
}

// routes is the single source of truth for the v1 API surface. Patterns
// with several sub-paths (/v1/jobs/) list every documented operation;
// their handlers refine the method check per sub-path (DELETE is valid
// on /v1/jobs/{id} but not on /v1/jobs/{id}/result).
func (s *Server) routes() []route {
	return []route{
		{pattern: "/healthz", methods: []string{http.MethodGet}, handler: s.handleHealthz,
			docs: []string{"GET /healthz"}},
		{pattern: "/v1/status", methods: []string{http.MethodGet}, handler: s.handleStatus,
			docs: []string{"GET /v1/status"}},
		{pattern: "/v1/schemes", methods: []string{http.MethodGet}, handler: s.handleSchemes,
			docs: []string{"GET /v1/schemes"}},
		{pattern: "/v1/perturb", methods: []string{http.MethodPost}, handler: s.post(s.handlePerturb),
			docs: []string{"POST /v1/perturb"}},
		{pattern: "/v1/attack", methods: []string{http.MethodPost}, handler: s.post(s.handleAttack),
			docs: []string{"POST /v1/attack"}},
		{pattern: "/v1/assess", methods: []string{http.MethodPost}, handler: s.post(s.handleAssess),
			docs: []string{"POST /v1/assess"}},
		{pattern: "/v1/jobs", methods: []string{http.MethodGet, http.MethodPost}, handler: s.handleJobsCollection,
			docs: []string{"GET /v1/jobs", "POST /v1/jobs"}},
		{pattern: "/v1/jobs/", methods: []string{http.MethodGet, http.MethodDelete}, handler: s.handleJobsItem,
			docs: []string{"GET /v1/jobs/{id}", "GET /v1/jobs/{id}/result", "DELETE /v1/jobs/{id}"}},
	}
}

// allowMethods enforces a route's method set: anything else is a 405
// with the Allow header and the uniform JSON error envelope, the same
// shape every other error takes.
func allowMethods(methods []string, h http.HandlerFunc) http.HandlerFunc {
	allowed := strings.Join(methods, ", ")
	set := make(map[string]bool, len(methods))
	for _, m := range methods {
		set[m] = true
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if !set[r.Method] {
			w.Header().Set("Allow", allowed)
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("server: method %s not allowed (use %s)", r.Method, allowed))
			return
		}
		h(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops the job manager (canceling running jobs; their durable
// state re-runs them on the next start), the cluster coordinator (its
// embedded workers release their leases gracefully), and drains the
// request pool.
func (s *Server) Close() {
	s.jobs.Close()
	if s.cluster != nil {
		s.cluster.Close()
	}
	s.pool.Close()
}

// trackingWriter records whether the response has been committed (any
// header or body write), so the error path can tell a clean failure from
// a mid-stream one.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackingWriter) WriteHeader(status int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(status)
}

func (t *trackingWriter) Write(p []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(p)
}

// post wraps a compute handler with the overload pre-check, the body
// size cap, and the per-request deadline shared by every compute
// endpoint. The method check lives in the route table's allowMethods
// wrapper.
func (s *Server) post(fn func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		w := &trackingWriter{ResponseWriter: rw}
		// Shed load before spooling: admission control at the pool only
		// kicks in after the body is on disk, so a saturated service
		// must refuse the upload work too, not just the compute.
		if s.pool.Inflight() >= int64(s.cfg.Workers+s.cfg.QueueDepth) {
			s.setRetryAfter(w, http.StatusTooManyRequests)
			writeError(w, http.StatusTooManyRequests, ErrQueueFull)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		// MaxBytesReader gets the raw ResponseWriter: it type-asserts a
		// net/http-internal interface to mark oversized requests for
		// connection close, which the trackingWriter wrapper would hide.
		r.Body = http.MaxBytesReader(rw, r.Body, s.cfg.MaxBodyBytes)
		if err := fn(w, r); err != nil {
			status := statusOf(err)
			s.cfg.Log.Printf("randprivd: %s %s -> %d: %v", r.Method, r.URL.Path, status, err)
			var pe *panicError
			if errors.As(err, &pe) {
				s.cfg.Log.Printf("randprivd: worker panic stack:\n%s", pe.Stack)
			}
			if w.wrote {
				// The response is committed (a CSV stream was already
				// under way): the status cannot change and appending a
				// JSON envelope would corrupt the payload. Abort the
				// connection so the client sees a truncated transfer,
				// never a complete-looking 200.
				panic(http.ErrAbortHandler)
			}
			s.setRetryAfter(w, status)
			writeError(w, status, err)
		}
	}
}

// badRequestError marks client-side failures (bad parameters, malformed
// CSV) so statusOf maps them to 400.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// badRequest tags err as a 400.
func badRequest(err error) error {
	if err == nil {
		return nil
	}
	return badRequestError{err}
}

// statusOf maps a handler error onto its HTTP status: client data and
// parameter problems are 400, an unknown job 404, a not-ready job result
// 409, oversized bodies 413, a saturated queue (request pool or job
// queue) 429, an expired deadline 503, everything else 500.
func statusOf(err error) int {
	var maxBytes *http.MaxBytesError
	var bad badRequestError
	var notReady *jobs.NotReadyError
	var param *sweep.ParamError
	var data *dataset.DataError
	switch {
	case errors.As(err, &maxBytes):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrQueueFull), errors.Is(err, jobs.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, jobs.ErrNotFound):
		return http.StatusNotFound
	case errors.As(err, &notReady):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.As(err, &bad), errors.As(err, &param), errors.As(err, &data):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// setRetryAfter advises shed clients when a retry is worth making: on a
// 429 or 503 the header carries the current backlog (requests and jobs
// queued ahead of the caller) divided by the drain lanes, clamped to
// [1, 120] seconds. Other statuses are untouched.
func (s *Server) setRetryAfter(w http.ResponseWriter, status int) {
	if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
		return
	}
	queued := s.pool.Inflight() - int64(s.cfg.Workers)
	if s.jobs != nil {
		jobsQueued, _, _ := s.jobs.Stats()
		if q := int64(jobsQueued); q > queued {
			queued = q
		}
	}
	if queued < 0 {
		queued = 0
	}
	workers := int64(s.cfg.Workers)
	if workers < 1 {
		workers = 1
	}
	secs := 1 + queued/workers
	if secs > 120 {
		secs = 120
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// errorCode maps an HTTP status onto its stable machine-readable code.
// Clients branch on these strings (the human-readable message may be
// reworded any time), so the mapping is append-only: a code, once
// shipped, keeps its meaning.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "param_invalid"
	case http.StatusNotFound:
		return "job_not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "job_not_ready"
	case http.StatusRequestEntityTooLarge:
		return "body_too_large"
	case http.StatusTooManyRequests:
		return "queue_full"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

// writeError emits the uniform JSON error envelope on a response that
// has not started yet (post aborts committed responses instead; the
// handlers run a validation pass before the first byte precisely so
// that mid-stream failures are rare). The envelope carries both the
// human-readable message ("error") and the stable machine-readable
// "code" derived from the status.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%q,\"code\":%q}\n", err.Error(), errorCode(status))
}
