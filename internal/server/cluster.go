// Cluster integration: how the HTTP service becomes a coordinator.
//
// With Config.ClusterDir set, the server opens the shared state
// directory, starts a cluster.Coordinator (with ClusterWorkers embedded
// claim loops, so a solo node still makes progress), and uses the
// cluster three ways:
//
//   - Jobs submitted to POST /v1/jobs are compiled plans — a plain
//     assessment is a one-point plan — and are delegated to the task
//     queue partitioned at perturbation-group boundaries: one sweepgroup
//     task per group, each executed end-to-end (perturb → shared sketch
//     → every point's battery) by whichever node claims it, with the
//     coordinator merging the group envelopes back in grid order. The
//     coordinator is the only node that decodes the job's CSV: it puts
//     the validated float64 spool into the CAS once per upload, and
//     every task reads that spool in place. The result is
//     byte-identical to single-process execution because both paths run
//     the same sweep.GroupExec.
//   - The shared result cache — keyed on the same sweep.CacheKey as the
//     in-process LRU — serves repeats across every node that shares the
//     directory, synchronous /v1/assess included. A synchronous
//     assessment that misses both caches runs on the local engine, as it
//     does on a single-process server: it never waits on the task queue.
//   - GET /v1/status grows a cluster section with per-node heartbeat
//     gauges and the task-queue depths, per task kind.
//
// Delegation falls back to the local computation on any infrastructure
// error — the cluster is an accelerator, the single process the
// reference. Fallback is always legal because both paths produce
// byte-identical results.

package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"randpriv/internal/cluster"
	"randpriv/internal/dataset"
	"randpriv/internal/jobs"
	"randpriv/internal/mat"
	"randpriv/internal/stream"
	"randpriv/internal/sweep"
)

// openCluster stands the coordinator up during New. The task runners are
// registered on the embedded workers so a coordinator-only deployment
// still executes delegated jobs itself.
func (s *Server) openCluster() error {
	st, err := cluster.OpenStore(s.cfg.ClusterDir, cluster.StoreOptions{FS: s.cfg.FS})
	if err != nil {
		return fmt.Errorf("%w %s: %w", ErrClusterDir, s.cfg.ClusterDir, err)
	}
	// Three consecutive infrastructure failures open the breaker; while
	// it cools down every delegable computation goes straight to the
	// serial path instead of timing out against a sick cluster again.
	s.breaker = &cluster.Breaker{Threshold: 3, Cooldown: 30 * time.Second}
	c, err := cluster.NewCoordinator(st, cluster.CoordinatorOptions{
		Node:     s.cfg.NodeID,
		Workers:  s.cfg.ClusterWorkers,
		LeaseTTL: s.cfg.ClusterLeaseTTL,
		Log:      s.cfg.Log,
	})
	if err != nil {
		return err
	}
	s.RegisterRunners(c)
	if err := c.Start(); err != nil {
		return err
	}
	s.cluster = c
	return nil
}

// defaultNodeID derives a filename-safe cluster identity from the host
// name and pid — unique enough for several processes sharing one state
// directory on one or many machines.
func defaultNodeID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "node"
	}
	var b strings.Builder
	for _, r := range host {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return fmt.Sprintf("%s-%d", b.String(), os.Getpid())
}

// RegisterRunners installs this server's runner for the cluster's one
// task kind, sweepgroup, on r — a coordinator's embedded claim loops or
// a worker-role process's claim loops. A task of any other kind (an
// older binary's sketch or score task) fails terminally with the
// worker's "no runner" error.
func (s *Server) RegisterRunners(r interface {
	Register(typ string, run cluster.TaskRunner)
}) {
	r.Register(cluster.TaskSweepGroup, s.ClusterSweepGroupRunner())
}

// sweepGroupSpec is the wire form of one delegated sweep-group task: the
// perturbation group's points in grid order plus the plan-level flags
// they share. encoding/json marshals it canonically, so the task id
// derived from these bytes is stable across coordinator restarts — a
// recovered sweep job re-enqueues the identical ids and finds its
// earlier done files.
type sweepGroupSpec struct {
	Stream bool           `json:"stream"`
	Points []sweep.Params `json:"points"`
}

// groupPointResult is one grid point's outcome inside a group envelope:
// the canonical report bytes (the standalone /v1/assess body minus its
// trailing newline — exactly what sweep.PointResult embeds), or the
// parameter rejection. Exactly one field is set.
type groupPointResult struct {
	Report json.RawMessage `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// groupEnvelope is a sweep-group task's done-file payload. Every field
// is a function of (spec, data, registry) alone, so duplicate executions
// after a lease reclaim write identical bytes — the determinism the
// completion protocol rests on.
type groupEnvelope struct {
	Rows   int64              `json:"rows"`
	Points []groupPointResult `json:"points"`
}

// ClusterSweepGroupRunner returns the cluster.TaskRunner that executes
// one perturbation group of a delegated job end-to-end: read the
// upload's float64 spool in place from the CAS, perturb once, share the
// group's sketch and baseline, and evaluate every point — through the
// same sweep.GroupExec the single-process paths drive, which is what
// keeps the merged result byte-identical. No worker parses CSV: the
// coordinator decoded the upload once, into that spool. Each computed
// report is published to the shared result cache under the same key a
// standalone /v1/assess would use, and cache-warm points are served
// without recompute.
func (s *Server) ClusterSweepGroupRunner() cluster.TaskRunner {
	return func(ctx context.Context, st *cluster.Store, t *cluster.Task) ([]byte, error) {
		var gs sweepGroupSpec
		if err := json.Unmarshal(t.Spec, &gs); err != nil {
			return nil, fmt.Errorf("server: decode sweep-group task spec: %w", err)
		}
		if len(gs.Points) == 0 {
			return nil, fmt.Errorf("server: sweep-group task %s carries no points", t.ID)
		}
		// A coordinator older than the spool put only the CSV into the
		// CAS; its task fails here and it runs the job itself.
		if !st.HasSpool(t.Digest) {
			return nil, fmt.Errorf("server: upload spool %s missing from the cluster store", t.Digest)
		}
		ws := s.jobWS.Get().(*mat.Workspace)
		ws.Reset()
		defer s.jobWS.Put(ws)
		wrap := func(raw stream.Source) stream.Source {
			return stream.ContextSource{Ctx: ctx, Src: raw}
		}
		open := func() (io.ReadCloser, error) { return st.OpenSpool(t.Digest) }
		ge, err := sweep.NewSpoolGroupExec(s.engine(ws), t.Digest, gs.Stream, gs.Points[0].Chunk, open, wrap)
		if err != nil {
			return nil, err
		}
		defer ge.Close()
		env := groupEnvelope{Rows: ge.Rows(), Points: make([]groupPointResult, len(gs.Points))}
		var pending []int
		for i, p := range gs.Points {
			if body, ok := st.CachedResult(sweep.CacheKey(p, t.Digest)); ok && len(body) > 0 && body[len(body)-1] == '\n' {
				env.Points[i].Report = json.RawMessage(body[:len(body)-1])
				continue
			}
			pending = append(pending, i)
		}
		if len(pending) > 0 {
			pts := make([]sweep.Params, len(pending))
			for i, pi := range pending {
				pts[i] = gs.Points[pi]
			}
			outcomes, err := ge.Run(ctx, sweep.PerturbKey(pts[0]), pts)
			if err != nil {
				return nil, err
			}
			for i, oc := range outcomes {
				pi := pending[i]
				if oc.Err != "" {
					env.Points[pi].Error = oc.Err
					continue
				}
				env.Points[pi].Report = json.RawMessage(oc.Body[:len(oc.Body)-1])
				if err := st.PutCachedResult(sweep.CacheKey(pts[i], t.Digest), oc.Body); err != nil {
					s.cfg.Log.Printf("randprivd: cluster result cache write: %v", err)
				}
			}
		}
		return json.Marshal(env)
	}
}

// delegate routes a compiled plan through the task queue, one
// sweepgroup task per perturbation group — the plan's natural unit of
// shared work, so a delegated group still amortizes its perturbation,
// baseline and sketch across its points exactly like the local engine.
// A scalar job's one-point plan is one such task. The envelopes come
// back in plan order. delegated == false means the cluster could not
// take the plan (CAS or queue trouble, a failed task, an envelope that
// does not fit) and the caller must run it locally — never that the
// assessment itself failed; the local result is byte-identical.
// progress, when non-nil, ticks points and groups as tasks complete.
func (s *Server) delegate(ctx context.Context, plan *sweep.Plan, upload, digest string, progress func(jobs.Progress)) (envs []groupEnvelope, err error, delegated bool) {
	st := s.cluster.Store()
	// An open breaker short-circuits delegation entirely: the serial
	// fallback is byte-identical, so degrading costs latency, never
	// correctness. Only infrastructure failures (no live claim loop, the
	// store refusing the upload's spool or the enqueue) feed the breaker
	// — an assessment that fails deterministically would fail
	// identically on the serial path and says nothing about the
	// cluster's health.
	if !s.breaker.Allow(time.Now().UTC()) {
		s.cfg.Log.Printf("randprivd: cluster delegation breaker open (running job locally)")
		return nil, nil, false
	}
	// Nothing would ever claim a task enqueued now, and the wait below
	// has no deadline of its own: no claim loop is an infrastructure
	// failure like a refused enqueue.
	if s.cluster.AliveWorkers(time.Now().UTC()) == 0 {
		s.breaker.Failure(time.Now().UTC())
		s.cfg.Log.Printf("randprivd: no live cluster claim loop (running job locally)")
		return nil, nil, false
	}
	if perr := s.putUploadSpool(ctx, st, upload, digest, plan.Points[0].Params.Chunk); perr != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err(), true // canceled job: not a cluster fault, and nothing left to run
		}
		var de *dataset.DataError
		switch {
		case errors.Is(perr, errUploadDigest):
			// The job dir and the spec disagree about the bytes; trust
			// neither and let the local path recompute the digest's report
			// honestly.
			s.cfg.Log.Printf("randprivd: job upload does not hash to spec digest %s (running job locally)", digest)
		case errors.As(perr, &de):
			// Bad data fails identically on the local path, which reports it.
			s.cfg.Log.Printf("randprivd: job upload %s does not validate: %v (running job locally)", digest, perr)
		default:
			s.breaker.Failure(time.Now().UTC())
			s.cfg.Log.Printf("randprivd: cluster spool put: %v (running job locally)", perr)
		}
		return nil, nil, false
	}
	ids := make([]string, len(plan.Groups))
	for i, g := range plan.Groups {
		pts := make([]sweep.Params, len(g.Points))
		for j, pi := range g.Points {
			pts[j] = plan.Points[pi].Params
		}
		spec, merr := json.Marshal(sweepGroupSpec{Stream: plan.Stream, Points: pts})
		if merr != nil {
			return nil, merr, true
		}
		task := cluster.NewSweepGroupTask(spec, digest)
		if err := st.Enqueue(task); err != nil {
			s.breaker.Failure(time.Now().UTC())
			s.cfg.Log.Printf("randprivd: cluster enqueue: %v (running job locally)", err)
			return nil, nil, false
		}
		ids[i] = task.ID
	}
	s.breaker.Success()

	var doneGroups, donePoints int64
	note := func() {
		if progress != nil {
			progress(jobs.Progress{
				PointsDone: donePoints, PointsTotal: int64(len(plan.Points)),
				GroupsDone: doneGroups, GroupsTotal: int64(len(plan.Groups)),
			})
		}
	}
	note()
	bodies, aerr := s.cluster.AwaitFunc(ctx, ids, func(i int, _ []byte) {
		doneGroups++
		donePoints += int64(len(plan.Groups[i].Points))
		note()
	})
	if aerr != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err(), true // canceled job: recomputing locally would be wasted work
		}
		s.cfg.Log.Printf("randprivd: cluster sweepgroup task: %v (running job locally)", aerr)
		return nil, nil, false
	}
	envs = make([]groupEnvelope, len(bodies))
	for i, raw := range bodies {
		if err := json.Unmarshal(raw, &envs[i]); err != nil {
			s.cfg.Log.Printf("randprivd: cluster sweepgroup envelope: %v (running job locally)", err)
			return nil, nil, false
		}
		if got, want := len(envs[i].Points), len(plan.Groups[i].Points); got != want {
			s.cfg.Log.Printf("randprivd: cluster sweepgroup envelope carries %d points, want %d (running job locally)", got, want)
			return nil, nil, false
		}
	}
	return envs, nil, true
}

// errUploadDigest marks a job upload whose bytes do not hash to the
// digest its spec records.
var errUploadDigest = errors.New("server: job upload does not hash to its spec digest")

// putUploadSpool makes the CAS hold the float64 spool of the job's
// upload, so that no worker parses CSV. The spool is written once per
// digest: the first job over an upload decodes and validates its CSV
// here, hashing the bytes as they are read; a later one only hashes the
// upload against digest. Either way an upload that does not hash to
// digest returns errUploadDigest and commits nothing, and data that
// does not validate returns the *dataset.DataError the local path would.
// Both reads of the CSV stop when ctx ends.
func (s *Server) putUploadSpool(ctx context.Context, st *cluster.Store, upload, digest string, chunk int) error {
	if st.HasSpool(digest) {
		f, err := s.fs.Open(upload)
		if err != nil {
			return err
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, ctxReader{ctx: ctx, r: f}); err != nil {
			return fmt.Errorf("server: hash job upload: %w", err)
		}
		if hex.EncodeToString(h.Sum(nil)) != digest {
			return errUploadDigest
		}
		return nil
	}
	return st.PutSpool(digest, func(w io.Writer) error {
		h := sha256.New()
		src, err := dataset.ReadCSVChunks(func() (io.ReadCloser, error) {
			f, err := s.fs.Open(upload)
			if err != nil {
				return nil, err
			}
			h.Reset()
			return hashingReader{io.TeeReader(f, h), f}, nil
		}, chunk)
		if err != nil {
			// A header that does not parse is the client's, as on /v1/assess.
			return &dataset.DataError{Err: err}
		}
		defer src.Close()
		cols := len(src.Names())
		if err := dataset.WriteSpool(w, cols, func(sink stream.Sink) error {
			_, err := dataset.Validate(stream.ContextSource{Ctx: ctx, Src: src}, cols, sink)
			return err
		}); err != nil {
			return err
		}
		// Validate read the CSV to EOF, so h has seen every byte.
		if hex.EncodeToString(h.Sum(nil)) != digest {
			return errUploadDigest
		}
		return nil
	})
}

// hashingReader reads a file through a hash and closes the file.
type hashingReader struct {
	io.Reader
	io.Closer
}

// mergeGroups assembles a delegated sweep's full-grid body from its
// group envelopes, in grid order — the bytes the local executor would
// produce — and warms the local LRU with every point's report like the
// local executor would, so a later standalone /v1/assess for a point is
// a cache hit here too.
func mergeGroups(plan *sweep.Plan, envs []groupEnvelope, digest string, cols int, cache sweep.ResultCache) ([]byte, error) {
	res := &sweep.Result{
		Cols:                cols,
		DatasetSHA256:       digest,
		GridPoints:          len(plan.Points) + plan.Collapsed,
		CollapsedDuplicates: plan.Collapsed,
		PlannedPasses:       plan.PlannedPasses,
		SequentialPasses:    plan.SequentialPasses,
		Points:              make([]sweep.PointResult, len(plan.Points)),
	}
	for i, pt := range plan.Points {
		res.Points[i] = sweep.PointResult{Params: pt.Params, GridIndices: pt.GridIndices}
	}
	for i, g := range plan.Groups {
		if res.Rows == 0 {
			res.Rows = envs[i].Rows
		}
		for j, pi := range g.Points {
			pt := envs[i].Points[j]
			res.Points[pi].Report = pt.Report
			res.Points[pi].Error = pt.Error
			if len(pt.Report) > 0 {
				cache.Add(sweep.CacheKey(plan.Points[pi].Params, digest), append(append([]byte(nil), pt.Report...), '\n'))
			}
		}
	}
	return sweep.MarshalResult(res)
}

// clusterNodeStatus is one node's /v1/status row, straight from its
// heartbeat file.
type clusterNodeStatus struct {
	Node         string  `json:"node"`
	Role         string  `json:"role"`
	AgeSeconds   float64 `json:"age_seconds"`
	Alive        bool    `json:"alive"`
	TasksClaimed int64   `json:"tasks_claimed"`
	TasksDone    int64   `json:"tasks_done"`
	TasksFailed  int64   `json:"tasks_failed"`
}

// clusterStatus is the /v1/status cluster section.
type clusterStatus struct {
	Node         string `json:"node"`
	AliveWorkers int    `json:"alive_workers"`
	TasksPending int    `json:"tasks_pending"`
	TasksClaimed int    `json:"tasks_claimed"`
	TasksDone    int    `json:"tasks_done"`
	// Degraded is true while the delegation breaker is open: the node
	// runs its jobs and sweeps locally, on the byte-identical serial
	// path, because the cluster infrastructure kept failing. BreakerTrips
	// counts how many times the breaker has opened since the server
	// started.
	Degraded     bool  `json:"degraded"`
	BreakerTrips int64 `json:"breaker_trips"`
	// TasksByKind breaks the queue depths down per task kind. This
	// binary enqueues only sweepgroup; a kind an older binary left on
	// disk shows up too. Kinds with no tasks on disk are absent.
	TasksByKind map[string]cluster.KindStats `json:"tasks_by_kind,omitempty"`
	Nodes       []clusterNodeStatus          `json:"nodes"`
}

// clusterHealth assembles the /v1/status cluster section, or nil when
// the server runs single-process.
func (s *Server) clusterHealth() *clusterStatus {
	if s.cluster == nil {
		return nil
	}
	now := time.Now().UTC()
	st := s.cluster.Store()
	pending, claimed, done := st.QueueStats()
	out := &clusterStatus{
		Node:         s.cfg.NodeID,
		AliveWorkers: s.cluster.AliveWorkers(now),
		TasksPending: pending,
		TasksClaimed: claimed,
		TasksDone:    done,
		Degraded:     s.breaker.Open(now),
		BreakerTrips: s.breaker.Trips(),
		TasksByKind:  st.QueueStatsByKind(),
	}
	nodes, err := st.Nodes()
	if err != nil {
		s.cfg.Log.Printf("randprivd: cluster node scan: %v", err)
		return out
	}
	for _, hb := range nodes {
		age := now.Sub(hb.Time)
		out.Nodes = append(out.Nodes, clusterNodeStatus{
			Node:         hb.Node,
			Role:         hb.Role,
			AgeSeconds:   age.Seconds(),
			Alive:        age <= s.cfg.ClusterLeaseTTL,
			TasksClaimed: hb.TasksClaimed,
			TasksDone:    hb.TasksDone,
			TasksFailed:  hb.TasksFailed,
		})
	}
	return out
}
