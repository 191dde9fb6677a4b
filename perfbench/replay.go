package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"randpriv/internal/cluster"
	"randpriv/internal/core"
	"randpriv/internal/dataset"
	"randpriv/internal/mat"
	"randpriv/internal/stream"
	"randpriv/internal/sweep"
)

// replayer re-runs one op in-process through the layers' exported
// functions, in the order the server calls them, with spans at each
// layer boundary.
type replayer struct {
	w     *workload
	in    *inputs
	rec   *recorder
	reg   *core.Registry // builtins wrapped in span shims
	ws    *mat.Workspace
	dir   string // scratch space for spools and cluster stores
	count decodeCount
	tasks int
}

func (r *replayer) openCSV(path string, chunk int) (*dataset.ChunkSource, *decodeSource, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	raw, err := dataset.OpenCSVChunks(path, chunk)
	if err != nil {
		return nil, nil, err
	}
	return raw, &decodeSource{src: raw, rec: r.rec, size: fi.Size(), count: &r.count}, nil
}

// replay runs op and returns its response bytes.
func (r *replayer) replay(ctx context.Context, rep int, op opResult) ([]byte, error) {
	r.rec.op = rep
	r.count = decodeCount{}
	r.tasks = 0
	if r.w.cluster {
		// Task ids come from task contents: a fresh store per replay keeps
		// done files from an earlier replay from answering this one.
		st, err := cluster.Open(filepath.Join(r.dir, fmt.Sprintf("store-%d", rep)))
		if err != nil {
			return nil, err
		}
		var body []byte
		err = r.rec.do("op", func() (err error) {
			body, err = r.sweep(ctx, st, op.seeds)
			return err
		})
		return body, err
	}
	var body []byte
	err := r.rec.do("op", func() (err error) {
		body, err = r.assess(ctx, assessParams(r.w, op.seeds[0]))
		return err
	})
	return body, err
}

// assess mirrors the server's sync /v1/assess compute path: validate the
// spooled upload, perturb it into a disguised CSV spool, run the battery
// (streamed, or over both copies collected resident) and marshal the
// report.
func (r *replayer) assess(ctx context.Context, p sweep.Params) ([]byte, error) {
	raw, orig, err := r.openCSV(r.in.uploadPath, p.Chunk)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	names := raw.Names()

	var rows int64
	if err := r.rec.do("stream.validate", func() error {
		if err := orig.Reset(); err != nil {
			return err
		}
		for {
			chunk, err := orig.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := stream.ValidateChunk(chunk, rows); err != nil {
				return err
			}
			rows += int64(chunk.Rows())
		}
	}); err != nil {
		return nil, err
	}

	env := sweep.Env{Reg: r.reg, WS: r.ws}
	bd, err := env.BuildDefense(p, func() (cov *mat.Dense, err error) {
		err = r.rec.do("stream.sketch", func() error {
			mo, err := stream.Accumulate(orig, 1)
			if err == nil {
				cov = mo.Covariance()
			}
			return err
		})
		return cov, err
	})
	if err != nil {
		return nil, err
	}

	disgFile, err := os.CreateTemp(r.dir, "disg-*.csv")
	if err != nil {
		return nil, err
	}
	defer os.Remove(disgFile.Name())
	cw, err := dataset.NewChunkWriter(disgFile, names)
	if err == nil {
		err = bd.Scheme.PerturbStream(orig, encodeSink{w: cw, rec: r.rec}, sweep.PointRNG(p.Seed))
	}
	if err == nil {
		err = r.rec.do("dataset.encode", cw.Flush)
	}
	if cerr := disgFile.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	disgRaw, disg, err := r.openCSV(disgFile.Name(), p.Chunk)
	if err != nil {
		return nil, err
	}
	defer disgRaw.Close()

	var rep *core.PrivacyReport
	var utilities []core.UtilityResult
	if p.Stream {
		var ndr float64
		if err := r.rec.do("core.ndr", func() (err error) {
			ndr, err = core.StreamNDRBaseline(orig, disg)
			return err
		}); err != nil {
			return nil, err
		}
		rep, err = env.EvaluateStreamPoint(p, orig, disg, bd, &ndr, nil)
	} else {
		var origData, disgData *mat.Dense
		if origData, err = r.collect(orig); err != nil {
			return nil, err
		}
		if disgData, err = r.collect(disg); err != nil {
			return nil, err
		}
		// core.Evaluate's self time is its NDR baseline plus the
		// per-attack scoring; the attacks are child spans.
		err = r.rec.do("core.ndr", func() (err error) {
			rep, utilities, err = env.EvaluateMemoryPoint(ctx, p, origData, disgData, bd)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	var body []byte
	err = r.rec.do("sweep.marshal", func() (err error) {
		body, err = sweep.MarshalReport(rep, utilities, p, rows, len(names), r.in.digest)
		return err
	})
	return body, err
}

func (r *replayer) collect(src stream.Source) (data *mat.Dense, err error) {
	err = r.rec.do("stream.collect", func() error {
		if err := src.Reset(); err != nil {
			return err
		}
		var col stream.Collector
		for {
			chunk, err := src.Next()
			if err == io.EOF {
				data = col.Data
				return nil
			}
			if err != nil {
				return err
			}
			if err := col.Append(chunk); err != nil {
				return err
			}
		}
	})
	return data, err
}

// groupSpec and groupEnvelope are the wire forms of a sweepgroup task's
// spec and done-file payload, as the server writes them.
type groupSpec struct {
	Stream bool           `json:"stream"`
	Points []sweep.Params `json:"points"`
}

type groupPoint struct {
	Report json.RawMessage `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
}

type groupEnvelope struct {
	Rows   int64        `json:"rows"`
	Points []groupPoint `json:"points"`
}

// sweep mirrors a delegated sweep job end to end in one process: the
// coordinator compiles the spec, puts the upload into the cluster store
// and enqueues one sweepgroup task per perturbation group; a worker
// claims and runs each task the way the server's sweepgroup runner does;
// the coordinator merges the group envelopes in grid order.
func (r *replayer) sweep(ctx context.Context, st *cluster.Store, seeds []int64) ([]byte, error) {
	specBytes, err := sweepSpec(r.w, seeds)
	if err != nil {
		return nil, err
	}
	var plan *sweep.Plan
	if err := r.rec.do("sweep.compile", func() error {
		spec, err := sweep.ParseSpec(specBytes)
		if err != nil {
			return err
		}
		grid, err := spec.Expand(r.reg, r.w.chunk, 0)
		if err != nil {
			return err
		}
		plan, err = sweep.Compile(r.reg, grid)
		return err
	}); err != nil {
		return nil, err
	}
	var digest string
	if err := r.rec.do("cluster.put", func() (err error) {
		digest, err = st.PutFile(r.in.uploadPath)
		return err
	}); err != nil {
		return nil, err
	}
	ids := make([]string, len(plan.Groups))
	for i, g := range plan.Groups {
		pts := make([]sweep.Params, len(g.Points))
		for j, pi := range g.Points {
			pts[j] = plan.Points[pi].Params
		}
		spec, err := json.Marshal(groupSpec{Stream: plan.Stream, Points: pts})
		if err != nil {
			return nil, err
		}
		task := cluster.NewSweepGroupTask(spec, digest)
		if err := r.rec.do("cluster.enqueue", func() error { return st.Enqueue(task) }); err != nil {
			return nil, err
		}
		ids[i] = task.ID
	}

	for range plan.Groups {
		var t *cluster.Task
		if err := r.rec.do("cluster.claim", func() (err error) {
			t, err = st.Claim("replay")
			return err
		}); err != nil {
			return nil, err
		}
		if t == nil {
			return nil, fmt.Errorf("replay: no claimable task")
		}
		var result []byte
		if err := r.rec.do("sweep.task", func() (err error) {
			result, err = r.groupTask(ctx, st, t)
			return err
		}); err != nil {
			return nil, err
		}
		if err := r.rec.do("cluster.complete", func() error { return st.Complete(t, result, "") }); err != nil {
			return nil, err
		}
		r.tasks++
	}

	res := &sweep.Result{
		Cols:                r.w.cols,
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
		body, taskErr, ok, err := st.TaskResult(ids[i])
		if err != nil || !ok || taskErr != "" {
			return nil, fmt.Errorf("replay: task %s: ok=%v err=%v %s", ids[i], ok, err, taskErr)
		}
		var env groupEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			return nil, err
		}
		if len(env.Points) != len(g.Points) {
			return nil, fmt.Errorf("replay: envelope has %d points, want %d", len(env.Points), len(g.Points))
		}
		if res.Rows == 0 {
			res.Rows = env.Rows
		}
		for j, pi := range g.Points {
			res.Points[pi].Report = env.Points[j].Report
			res.Points[pi].Error = env.Points[j].Error
		}
	}
	var body []byte
	err = r.rec.do("sweep.marshal", func() (err error) {
		body, err = sweep.MarshalResult(res)
		return err
	})
	return body, err
}

// groupTask runs one claimed sweepgroup task: scan the content-addressed
// upload into a sweep.GroupExec, evaluate the group's points, publish
// each report to the shared result cache and return the envelope.
func (r *replayer) groupTask(ctx context.Context, st *cluster.Store, t *cluster.Task) ([]byte, error) {
	var gs groupSpec
	if err := json.Unmarshal(t.Spec, &gs); err != nil {
		return nil, err
	}
	if len(gs.Points) == 0 || !st.HasBlob(t.Digest) {
		return nil, fmt.Errorf("replay: bad task %s", t.ID)
	}
	chunk := gs.Points[0].Chunk
	raw, src, err := r.openCSV(st.CASPath(t.Digest), chunk)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	var ge *sweep.GroupExec
	if err := r.rec.do("sweep.scan", func() (err error) {
		ge, err = sweep.NewGroupExec(sweep.Env{Reg: r.reg, WS: r.ws}, t.Digest, gs.Stream, chunk, len(raw.Names()), src, nil)
		return err
	}); err != nil {
		return nil, err
	}
	env := groupEnvelope{Rows: ge.Rows(), Points: make([]groupPoint, len(gs.Points))}
	var pending []int
	for i, p := range gs.Points {
		if body, ok := st.CachedResult(sweep.CacheKey(p, t.Digest)); ok && len(body) > 0 {
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
		var outcomes []sweep.GroupOutcome
		if err := r.rec.do("sweep.group", func() (err error) {
			outcomes, err = ge.Run(ctx, sweep.PerturbKey(pts[0]), pts)
			return err
		}); err != nil {
			return nil, err
		}
		for i, oc := range outcomes {
			pi := pending[i]
			if oc.Err != "" {
				env.Points[pi].Error = oc.Err
				continue
			}
			env.Points[pi].Report = json.RawMessage(oc.Body[:len(oc.Body)-1])
			if err := r.rec.do("cluster.cache_put", func() error {
				return st.PutCachedResult(sweep.CacheKey(pts[i], t.Digest), oc.Body)
			}); err != nil {
				return nil, err
			}
		}
	}
	return json.Marshal(env)
}
