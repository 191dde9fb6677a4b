// Cluster integration: how the HTTP service becomes a coordinator.
//
// With Config.ClusterDir set, the server opens the shared state
// directory, starts a cluster.Coordinator (with ClusterWorkers embedded
// claim loops, so a solo node still makes progress), and uses the
// cluster four ways:
//
//   - Plain assessment jobs submitted to POST /v1/jobs are delegated to
//     the task queue: the upload goes into the content-addressed store,
//     an assess task is enqueued, and any attached worker process (or an
//     embedded claim loop) computes it. The shared result cache — keyed
//     on the same sweep.CacheKey as the in-process LRU — serves repeats
//     across every node that shares the directory.
//   - Sweep jobs are partitioned at perturbation-group boundaries: one
//     sweepgroup task per group, each executed end-to-end (perturb →
//     shared sketch → every point's battery) by whichever node claims
//     it, with the coordinator merging the group envelopes back in grid
//     order. The full-grid body is byte-identical to single-process
//     execution because both paths run the same sweep.GroupExec.
//   - Large streamed assessments shard across the cluster twice: the
//     disguised copy's float64 spool is cut at chunk-multiple row offsets
//     for the moment sketch through ShardedSketch (pass 1), and the
//     scoring pass runs as one score task per battery attack (pass 2).
//     Both merges are bit-identical to the serial computation by
//     construction, so these are purely accelerators.
//   - GET /v1/status grows a cluster section with per-node heartbeat
//     gauges and the task-queue depths, per task kind.
//
// Every cluster path falls back to the local serial computation on any
// infrastructure error — the cluster is an accelerator, the single
// process the reference. Fallback is always legal because both paths
// produce byte-identical results.

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"randpriv/internal/cluster"
	"randpriv/internal/core"
	"randpriv/internal/dataset"
	"randpriv/internal/jobs"
	"randpriv/internal/mat"
	"randpriv/internal/recon"
	"randpriv/internal/stream"
	"randpriv/internal/sweep"
)

// openCluster stands the coordinator up during New. The assess runner is
// registered on the embedded workers so a coordinator-only deployment
// still executes delegated jobs itself.
func (s *Server) openCluster() error {
	st, err := cluster.OpenStore(s.cfg.ClusterDir, cluster.StoreOptions{FS: s.cfg.FS})
	if err != nil {
		return err
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
	c.Register(cluster.TaskAssess, s.ClusterAssessRunner())
	c.Register(cluster.TaskSweepGroup, s.ClusterSweepGroupRunner())
	c.Register(cluster.TaskScore, s.ClusterScoreRunner())
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

// ClusterAssessRunner returns the cluster.TaskRunner that executes one
// delegated plain assessment: open the content-addressed upload, run the
// exact runAssessment path the synchronous endpoint uses (cluster
// sketching disabled — a task must never enqueue sub-tasks, or a lone
// worker deadlocks on its own queue), and publish the report into the
// shared result cache. cmd/randprivd registers it on worker-role nodes.
func (s *Server) ClusterAssessRunner() cluster.TaskRunner {
	return func(ctx context.Context, st *cluster.Store, t *cluster.Task) ([]byte, error) {
		var sp jobSpec
		if err := json.Unmarshal(t.Spec, &sp); err != nil {
			return nil, fmt.Errorf("server: decode assess task spec: %w", err)
		}
		if sp.Type != "" {
			return nil, fmt.Errorf("server: assess tasks carry plain assessments only, got type %q", sp.Type)
		}
		if !st.HasBlob(t.Digest) {
			return nil, fmt.Errorf("server: upload blob %s missing from the cluster store", t.Digest)
		}
		p := sp.params()
		src, err := dataset.OpenCSVChunks(st.CASPath(t.Digest), p.Chunk)
		if err != nil {
			return nil, err
		}
		defer src.Close()
		ws := s.jobWS.Get().(*mat.Workspace)
		ws.Reset()
		defer s.jobWS.Put(ws)
		body, err := s.runAssessment(ctx, src, p, sp.Digest, ws, nil, false)
		if err != nil {
			return nil, err
		}
		if err := st.PutCachedResult(sweep.CacheKey(sweepParams(p), sp.Digest), body); err != nil {
			s.cfg.Log.Printf("randprivd: cluster result cache write: %v", err)
		}
		return body, nil
	}
}

// runJobViaCluster routes one plain assessment job through the task
// queue. delegated == false means the cluster could not take the job
// (CAS or queue trouble) and the caller must run it locally — never that
// the assessment itself failed.
func (s *Server) runJobViaCluster(ctx context.Context, rawSpec json.RawMessage, sp jobSpec, upload string) (body []byte, err error, delegated bool) {
	st := s.cluster.Store()
	key := sweep.CacheKey(sweepParams(sp.params()), sp.Digest)
	if body, ok := st.CachedResult(key); ok {
		return body, nil, true
	}
	// An open breaker short-circuits delegation entirely: the serial
	// fallback is byte-identical, so degrading costs latency, never
	// correctness. Only infrastructure failures (the store refusing the
	// upload or the enqueue) feed the breaker — an assessment that fails
	// deterministically would fail identically on the serial path and
	// says nothing about the cluster's health.
	now := time.Now().UTC()
	if !s.breaker.Allow(now) {
		s.cfg.Log.Printf("randprivd: cluster delegation breaker open (running job locally)")
		return nil, nil, false
	}
	digest, perr := st.PutFile(upload)
	if perr != nil {
		s.breaker.Failure(time.Now().UTC())
		s.cfg.Log.Printf("randprivd: cluster store put: %v (running job locally)", perr)
		return nil, nil, false
	}
	if digest != sp.Digest {
		// The job dir and the spec disagree about the bytes; trust neither
		// and let the local path recompute the digest's report honestly.
		s.cfg.Log.Printf("randprivd: job upload digest %s != spec digest %s (running job locally)", digest, sp.Digest)
		return nil, nil, false
	}
	task := cluster.NewAssessTask(rawSpec, digest)
	if err := st.Enqueue(task); err != nil {
		s.breaker.Failure(time.Now().UTC())
		s.cfg.Log.Printf("randprivd: cluster enqueue: %v (running job locally)", err)
		return nil, nil, false
	}
	s.breaker.Success()
	bodies, aerr := s.cluster.Await(ctx, []string{task.ID})
	if aerr != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err(), true // canceled job: recomputing locally would be wasted work
		}
		s.cfg.Log.Printf("randprivd: cluster assess task: %v (running job locally)", aerr)
		return nil, nil, false
	}
	return bodies[0], nil, true
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
// one perturbation group of a delegated sweep end-to-end: open the
// content-addressed upload, perturb once, share the group's sketch and
// baseline, and evaluate every point — through the same sweep.GroupExec
// the single-process executor drives, which is what keeps the merged
// full-grid result byte-identical. Each computed report is published to
// the shared result cache under the same key a standalone /v1/assess
// would use, and cache-warm points are served without recompute. The
// runner never enqueues sub-tasks (a task spawning tasks deadlocks a
// lone worker on its own queue). cmd/randprivd registers it on
// worker-role nodes.
func (s *Server) ClusterSweepGroupRunner() cluster.TaskRunner {
	return func(ctx context.Context, st *cluster.Store, t *cluster.Task) ([]byte, error) {
		var gs sweepGroupSpec
		if err := json.Unmarshal(t.Spec, &gs); err != nil {
			return nil, fmt.Errorf("server: decode sweep-group task spec: %w", err)
		}
		if len(gs.Points) == 0 {
			return nil, fmt.Errorf("server: sweep-group task %s carries no points", t.ID)
		}
		if !st.HasBlob(t.Digest) {
			return nil, fmt.Errorf("server: upload blob %s missing from the cluster store", t.Digest)
		}
		chunk := gs.Points[0].Chunk
		src, err := dataset.OpenCSVChunks(st.CASPath(t.Digest), chunk)
		if err != nil {
			return nil, err
		}
		defer src.Close()
		ws := s.jobWS.Get().(*mat.Workspace)
		ws.Reset()
		defer s.jobWS.Put(ws)
		wrap := func(raw stream.Source) stream.Source {
			return stream.ContextSource{Ctx: ctx, Src: raw}
		}
		ge, err := sweep.NewGroupExec(sweep.Env{Reg: defaultRegistry, WS: ws}, t.Digest, gs.Stream, chunk, len(src.Names()), src, wrap)
		if err != nil {
			return nil, err
		}
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

// runSweepViaCluster routes a compiled sweep plan through the task
// queue, one task per perturbation group — the plan's natural unit of
// shared work, so a delegated group still amortizes its perturbation,
// baseline and sketch across its points exactly like the local executor.
// The coordinator merges the group envelopes back in grid order, which
// keeps the full-grid body byte-identical to single-process execution.
// delegated == false means the cluster could not take the sweep (CAS or
// queue trouble, an unreadable envelope) and the caller must run it
// locally — never that the sweep itself failed.
func (s *Server) runSweepViaCluster(ctx context.Context, sp jobSpec, plan *sweep.Plan, upload string, cols int, progress func(jobs.Progress)) (body []byte, err error, delegated bool) {
	st := s.cluster.Store()
	now := time.Now().UTC()
	if !s.breaker.Allow(now) {
		s.cfg.Log.Printf("randprivd: cluster delegation breaker open (running sweep locally)")
		return nil, nil, false
	}
	digest, perr := st.PutFile(upload)
	if perr != nil {
		s.breaker.Failure(time.Now().UTC())
		s.cfg.Log.Printf("randprivd: cluster store put: %v (running sweep locally)", perr)
		return nil, nil, false
	}
	if digest != sp.Digest {
		s.cfg.Log.Printf("randprivd: sweep upload digest %s != spec digest %s (running sweep locally)", digest, sp.Digest)
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
			s.cfg.Log.Printf("randprivd: cluster enqueue: %v (running sweep locally)", err)
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
	envs, aerr := s.cluster.AwaitFunc(ctx, ids, func(i int, _ []byte) {
		doneGroups++
		donePoints += int64(len(plan.Groups[i].Points))
		note()
	})
	if aerr != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err(), true // canceled job: recomputing locally would be wasted work
		}
		s.cfg.Log.Printf("randprivd: cluster sweep task: %v (running sweep locally)", aerr)
		return nil, nil, false
	}

	res := &sweep.Result{
		Cols:                cols,
		DatasetSHA256:       sp.Digest,
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
		var env groupEnvelope
		if err := json.Unmarshal(envs[i], &env); err != nil {
			s.cfg.Log.Printf("randprivd: cluster sweep envelope: %v (running sweep locally)", err)
			return nil, nil, false
		}
		if len(env.Points) != len(g.Points) {
			s.cfg.Log.Printf("randprivd: cluster sweep envelope carries %d points, want %d (running sweep locally)", len(env.Points), len(g.Points))
			return nil, nil, false
		}
		if res.Rows == 0 {
			res.Rows = env.Rows
		}
		for j, pi := range g.Points {
			res.Points[pi].Report = env.Points[j].Report
			res.Points[pi].Error = env.Points[j].Error
			// Warm the local LRU like the local executor would, so a later
			// standalone /v1/assess for this point is a cache hit here too.
			if s.cache != nil && len(env.Points[j].Report) > 0 {
				s.cache.Add(sweep.CacheKey(plan.Points[pi].Params, sp.Digest), append(append([]byte(nil), env.Points[j].Report...), '\n'))
			}
		}
	}
	body, merr := sweep.MarshalResult(res)
	if merr != nil {
		return nil, nil, false
	}
	return body, nil, true
}

// clusterSketch builds the core.SketchFn for a streamed assessment's
// shared pass 1: shard the disguised float64 spool at path across alive
// workers, fall back to the serial sketch over disg (a source over the
// same spool) on any error. Both branches are bit-identical to
// recon.SketchSource over the same chunk partition, so the report bytes
// cannot depend on which one ran.
//
// The sharded attempt is deadline-bounded by ClusterDelegateTimeout and
// gated by the delegation breaker: a cluster losing its workers mid-pass
// costs one bounded wait, trips the breaker, and every following sketch
// goes serial immediately until the cooldown expires. Every sharding
// error feeds the breaker — unlike job delegation there is no ambiguity,
// because the serial path computes the identical moments either way.
func (s *Server) clusterSketch(ctx context.Context, disg stream.Source, path string, chunk int) core.SketchFn {
	serial := func() (*stream.Moments, error) { return recon.SketchSource(disg) }
	return func() (*stream.Moments, error) {
		now := time.Now().UTC()
		if !s.breaker.Allow(now) {
			return serial()
		}
		shards := s.cluster.AliveWorkers(now)
		if shards < 1 {
			shards = 1
		}
		sctx, cancel := context.WithTimeout(ctx, s.cfg.ClusterDelegateTimeout)
		mo, err := s.cluster.ShardedSketch(sctx, path, chunk, shards)
		cancel()
		if err == nil {
			s.breaker.Success()
			return mo, nil
		}
		if ctx.Err() != nil {
			// The request itself died; that is the caller's deadline, not
			// the cluster's fault.
			return nil, ctx.Err()
		}
		s.breaker.Failure(time.Now().UTC())
		s.cfg.Log.Printf("randprivd: cluster sketch fell back to serial: %v", err)
		return serial()
	}
}

// scoreSpec is the wire form of one delegated scoring work unit: one
// attack of a streamed assessment's second pass, against the
// content-addressed (original, disguised) pair. The task digest is the
// original CSV upload's; the disguised copy travels as a float64 spool
// under its own digest. The NDR baseline is computed once on the
// coordinator and shipped in the spec — float64 round-trips exactly
// through encoding/json, so the worker's report fragment is
// bit-identical to one computed in-process.
// Params carries Attacks=[Attack] (normalized), so the same (attack,
// data) unit deduplicates across requests with different batteries.
type scoreSpec struct {
	Params     sweep.Params `json:"params"`
	Attack     string       `json:"attack"`
	DisgDigest string       `json:"disg_digest"`
	Baseline   float64      `json:"baseline"`
}

// scoreEnvelope is a score task's done-file payload: one attack's
// result fields, exactly as core.AttackResult carries them.
type scoreEnvelope struct {
	Attack     string    `json:"attack"`
	RMSE       float64   `json:"rmse,omitempty"`
	ColumnRMSE []float64 `json:"column_rmse,omitempty"`
	GainVsNDR  float64   `json:"gain_vs_ndr,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// ClusterScoreRunner returns the cluster.TaskRunner that executes one
// delegated scoring unit: rebuild the point's defense (the noise model
// the attack assumes), run exactly the one named attack through the
// same sweep-engine battery path the serial assessment uses, and return
// its result fields. A deterministic attack failure travels in the
// envelope — the serial path embeds it in the report rather than
// failing the assessment, and the merged report must do the same.
// cmd/randprivd registers it on worker-role nodes.
func (s *Server) ClusterScoreRunner() cluster.TaskRunner {
	return func(ctx context.Context, st *cluster.Store, t *cluster.Task) ([]byte, error) {
		var sc scoreSpec
		if err := json.Unmarshal(t.Spec, &sc); err != nil {
			return nil, fmt.Errorf("server: decode score task spec: %w", err)
		}
		if sc.Attack == "" {
			return nil, fmt.Errorf("server: score task %s names no attack", t.ID)
		}
		if !st.HasBlob(t.Digest) {
			return nil, fmt.Errorf("server: upload blob %s missing from the cluster store", t.Digest)
		}
		if !st.HasBlob(sc.DisgDigest) {
			return nil, fmt.Errorf("server: disguised blob %s missing from the cluster store", sc.DisgDigest)
		}
		orig, err := dataset.OpenCSVChunks(st.CASPath(t.Digest), sc.Params.Chunk)
		if err != nil {
			return nil, err
		}
		defer orig.Close()
		disg, err := dataset.OpenSpool(st.CASPath(sc.DisgDigest), sc.Params.Chunk)
		if err != nil {
			return nil, err
		}
		defer disg.Close()
		ws := s.jobWS.Get().(*mat.Workspace)
		ws.Reset()
		defer s.jobWS.Put(ws)
		env := sweep.Env{Reg: defaultRegistry, WS: ws}
		origSrc := stream.ContextSource{Ctx: ctx, Src: orig}
		disgSrc := stream.ContextSource{Ctx: ctx, Src: disg}
		p := sc.Params
		p.Attacks = []string{sc.Attack}
		bd, err := env.BuildDefense(p, func() (*mat.Dense, error) {
			mo, err := stream.Accumulate(origSrc, 1)
			if err != nil {
				return nil, fmt.Errorf("server: covariance pass: %w", err)
			}
			return mo.Covariance(), nil
		})
		if err != nil {
			return nil, err
		}
		baseline := sc.Baseline
		rep, err := env.EvaluateStreamPoint(p, origSrc, disgSrc, bd, &baseline, nil)
		if err != nil {
			return nil, err
		}
		// A canceled context or a failed spool read is absorbed into the
		// attack's error field; that must fail the task (it restarts
		// elsewhere), not masquerade as a deterministic attack failure.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := disg.Err(); err != nil {
			return nil, err
		}
		if len(rep.Results) != 1 {
			return nil, fmt.Errorf("server: score task %s produced %d results, want 1", t.ID, len(rep.Results))
		}
		r := rep.Results[0]
		out := scoreEnvelope{Attack: r.Attack, RMSE: r.RMSE, ColumnRMSE: r.ColumnRMSE, GainVsNDR: r.GainVsNDR}
		if r.Err != nil {
			out = scoreEnvelope{Attack: r.Attack, Error: r.Err.Error()}
		}
		return json.Marshal(out)
	}
}

// clusterScore shards the second pass of a large streamed assessment:
// one score task per battery attack, each reconstructing against the
// content-addressed (original, disguised) pair on whichever node claims
// it. The merged report reproduces the serial evaluator's ordering via
// core.SortResults — a total order over distinct attack names — so the
// response bytes cannot depend on task completion order. ok == false
// means the caller must score serially (single-attack battery, breaker
// open, or any infrastructure failure); both paths are byte-identical,
// so falling back costs latency, never correctness. origCSV is the
// original upload as the client sent it; orig and disg are the sources
// the serial path would scan, which the NDR baseline is computed from
// here, once.
func (s *Server) clusterScore(ctx context.Context, origCSV string, orig, disg stream.Source, disgPath string, bd core.BuiltDefense, p requestParams) (*core.PrivacyReport, bool) {
	modes := sweep.AttackModes(sweepParams(p), bd.Noise)
	if len(modes) < 2 || origCSV == "" {
		return nil, false // nothing to fan out, or a reader-backed upload the CAS cannot adopt
	}
	now := time.Now().UTC()
	if !s.breaker.Allow(now) {
		return nil, false
	}
	sctx, cancel := context.WithTimeout(ctx, s.cfg.ClusterDelegateTimeout)
	defer cancel()
	rep, err := s.clusterScoreAttempt(sctx, origCSV, orig, disg, disgPath, bd, p, modes)
	if err == nil {
		s.breaker.Success()
		return rep, true
	}
	if ctx.Err() != nil {
		// The request itself died; the serial path will surface that.
		return nil, false
	}
	s.breaker.Failure(time.Now().UTC())
	s.cfg.Log.Printf("randprivd: cluster score pass fell back to serial: %v", err)
	return nil, false
}

func (s *Server) clusterScoreAttempt(ctx context.Context, origCSV string, orig, disg stream.Source, disgPath string, bd core.BuiltDefense, p requestParams, modes []string) (*core.PrivacyReport, error) {
	st := s.cluster.Store()
	origDigest, err := st.PutFile(origCSV)
	if err != nil {
		return nil, err
	}
	disgDigest, err := st.PutFile(disgPath)
	if err != nil {
		return nil, err
	}
	// The baseline pass runs here, once — the same two streams the serial
	// evaluator would scan, so the shipped float is the identical value.
	baseline, err := core.StreamNDRBaseline(
		stream.ContextSource{Ctx: ctx, Src: orig},
		stream.ContextSource{Ctx: ctx, Src: disg})
	if err != nil {
		return nil, err
	}
	base := sweepParams(p)
	ids := make([]string, len(modes))
	for i, mode := range modes {
		sp := base
		sp.Attacks = []string{mode}
		spec, merr := json.Marshal(scoreSpec{Params: sp, Attack: mode, DisgDigest: disgDigest, Baseline: baseline})
		if merr != nil {
			return nil, merr
		}
		task := cluster.NewScoreTask(spec, origDigest)
		if err := st.Enqueue(task); err != nil {
			return nil, err
		}
		ids[i] = task.ID
	}
	envs, err := s.cluster.Await(ctx, ids)
	if err != nil {
		return nil, err
	}
	rep := &core.PrivacyReport{
		Scheme:      fmt.Sprintf("%s (streaming, %d-row chunks)", bd.Scheme.Describe(), p.Chunk),
		NDRBaseline: baseline,
	}
	for _, raw := range envs {
		var e scoreEnvelope
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, err
		}
		r := core.AttackResult{Attack: e.Attack, RMSE: e.RMSE, ColumnRMSE: e.ColumnRMSE, GainVsNDR: e.GainVsNDR}
		if e.Error != "" {
			r = core.AttackResult{Attack: e.Attack, Err: errors.New(e.Error)}
		}
		rep.Results = append(rep.Results, r)
	}
	core.SortResults(rep.Results)
	return rep, nil
}

// clusterNodeStatus is one node's /healthz row, straight from its
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

// clusterStatus is the /healthz cluster section.
type clusterStatus struct {
	Node         string `json:"node"`
	AliveWorkers int    `json:"alive_workers"`
	TasksPending int    `json:"tasks_pending"`
	TasksClaimed int    `json:"tasks_claimed"`
	TasksDone    int    `json:"tasks_done"`
	// Degraded is true while the delegation breaker is open: the node is
	// serving everything through the byte-identical serial path because
	// the cluster infrastructure kept failing. BreakerTrips counts how
	// many times the breaker has opened since the server started.
	Degraded     bool  `json:"degraded"`
	BreakerTrips int64 `json:"breaker_trips"`
	// TasksByKind breaks the queue depths down per task kind (assess,
	// sweepgroup, score, sketch), so an operator can see which plane is
	// backed up. Kinds with no tasks on disk are absent.
	TasksByKind map[string]cluster.KindStats `json:"tasks_by_kind,omitempty"`
	Nodes       []clusterNodeStatus          `json:"nodes"`
}

// clusterHealth assembles the /healthz cluster section, or nil when the
// server runs single-process.
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
