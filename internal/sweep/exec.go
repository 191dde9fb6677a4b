package sweep

import (
	"context"
	"encoding/json"
	"io"

	"randpriv/internal/core"
	"randpriv/internal/dataset"
	"randpriv/internal/mat"
	"randpriv/internal/recon"
	"randpriv/internal/stream"
)

// ResultCache is the per-point result store the executor shares with the
// synchronous assess path (the server's LRU satisfies it). Keys are
// CacheKey(point, digest), values the canonical marshaled report — so a
// sweep warms the cache for later standalone requests and vice versa.
type ResultCache interface {
	Get(key string) ([]byte, bool)
	Add(key string, body []byte)
}

// ExecConfig wires an execution: the engine, the dataset digest reports
// embed, and the optional result cache and progress callback.
type ExecConfig struct {
	Env    Env
	Digest string
	Cache  ResultCache
	// Progress, when non-nil, receives (done, total) over the plan's
	// deduplicated points as each one resolves (computed, cached or
	// rejected).
	Progress func(done, total int64)
}

// PointResult is one grid point's outcome: the canonical assessment
// report (byte-identical to the standalone /v1/assess body for the same
// point), or the parameter rejection that standalone request would have
// gotten as a 400.
type PointResult struct {
	Params      Params          `json:"params"`
	GridIndices []int           `json:"grid_indices"`
	Report      json.RawMessage `json:"report,omitempty"`
	Error       string          `json:"error,omitempty"`
	// Cached marks a point served from the result cache. Excluded from
	// the body: cache state must not change the response bytes.
	Cached bool `json:"-"`
}

// Result is the full-grid report a sweep returns. Every field in the
// JSON body is a function of (spec, data, registry) alone — execution
// artifacts that vary with cache warmth stay out of it, so equal sweeps
// produce equal bytes.
type Result struct {
	Rows                int64         `json:"rows"`
	Cols                int           `json:"cols"`
	DatasetSHA256       string        `json:"dataset_sha256"`
	GridPoints          int           `json:"grid_points"`
	CollapsedDuplicates int           `json:"collapsed_duplicates"`
	PlannedPasses       int64         `json:"planned_passes"`
	SequentialPasses    int64         `json:"sequential_passes"`
	Points              []PointResult `json:"points"`

	// MeasuredPasses counts the data passes actually made (every source
	// reset); with a cold cache it must equal PlannedPasses. Cache hits
	// skip passes, so it stays out of the body.
	MeasuredPasses int64 `json:"-"`
	// SketchesBuilt is how many distinct shared sketches the run built.
	SketchesBuilt int `json:"-"`
}

// countingSource counts Reset calls into the run's measured-pass total.
// Every logical pass over a source resets it exactly once (validation,
// sketching, perturbation, projection, diff pulls), so resets of
// executor-created sources are the pass count.
type countingSource struct {
	src    stream.Source
	resets *int64
}

func (c countingSource) Next() (*mat.Dense, error) { return c.src.Next() }

func (c countingSource) Reset() error {
	*c.resets++
	return c.src.Reset()
}

// GroupOutcome is one point's result from evaluating a perturbation
// group: the canonical report bytes (trailing newline included — the
// exact standalone /v1/assess body), or the parameter rejection that
// request would have gotten as a 400. Exactly one field is set.
type GroupOutcome struct {
	Body []byte
	Err  string
}

// GroupExec evaluates perturbation groups against one validated upload.
// It is the one assessment orchestrator: Execute drives it group by
// group for a plan of any size, the server drives it for a one-point
// plan (/v1/assess and scalar jobs), and the cluster's sweep-group task
// runner drives it for a single delegated group — one compute path,
// which is what keeps every entry point byte-identical.
//
// The data plane follows the mode and nothing else. Memory mode holds
// the validated upload and each group's disguised copy resident. Stream
// mode holds both in float64 spools under Env.SpoolDir, so memory stays
// O(chunk + m²) at any upload size: the upload spool lives until Close,
// each disguised spool until its group ends. An upload that arrives
// already spooled (NewSpoolGroupExec) is read in place and never
// removed: its owner keeps it.
type GroupExec struct {
	env      Env
	digest   string
	stream   bool
	chunk    int
	rows     int64
	cols     int
	orig     *held
	wrap     func(stream.Source) stream.Source
	sketches *stream.SketchCache
}

// held is one data set the engine keeps for its passes: resident rows
// in memory mode, a float64 spool and the one reader every pass resets
// in stream mode. spool is set only for a spool the engine wrote, and
// close removes only that one; a borrowed spool has a reader and no
// spool.
type held struct {
	data  *mat.Dense
	spool *dataset.Spool
	src   *dataset.SpoolSource
}

// openHeld opens the reader over a freshly written spool, removing the
// spool if that fails.
func openHeld(sp *dataset.Spool, chunk int) (*held, error) {
	src, err := sp.Open(chunk)
	if err != nil {
		sp.Remove()
		return nil, err
	}
	return &held{spool: sp, src: src}, nil
}

func (h *held) source(chunk int) stream.Source {
	if h.src == nil {
		return stream.NewMatrixSource(h.data, chunk)
	}
	return h.src
}

// err returns the first read error the spool's reader hit. The battery
// files a failed read under the attack that made it; a storage fault is
// not an attack outcome, so no report may be built after one.
func (h *held) err() error {
	if h.src == nil {
		return nil
	}
	return h.src.Err()
}

func (h *held) close() {
	if h.src != nil {
		h.src.Close()
	}
	h.spool.Remove()
}

func newGroupExec(env Env, digest string, streamMode bool, chunk, cols int, wrap func(stream.Source) stream.Source) *GroupExec {
	if wrap == nil {
		wrap = func(s stream.Source) stream.Source { return s }
	}
	return &GroupExec{
		env: env, digest: digest, stream: streamMode, chunk: chunk,
		cols: cols, wrap: wrap, sketches: stream.NewSketchCache(),
	}
}

// NewGroupExec scans the upload once — validating every chunk and
// keeping the rows (resident, or in the upload spool in stream mode), so
// no later pass re-reads the CSV — and returns the group evaluator. wrap,
// when non-nil, decorates every source the evaluator opens (callers
// thread cancellation, pass and chunk counting through it). Close
// releases the upload spool.
func NewGroupExec(env Env, digest string, streamMode bool, chunk, cols int, upload stream.Source, wrap func(stream.Source) stream.Source) (*GroupExec, error) {
	g := newGroupExec(env, digest, streamMode, chunk, cols, wrap)
	var err error
	if streamMode {
		var sp *dataset.Spool
		sp, g.rows, err = dataset.ValidateSpool(env.FS, env.SpoolDir, g.wrap(upload), cols)
		if err == nil {
			g.orig, err = openHeld(sp, chunk)
		}
	} else {
		var col stream.Collector
		g.rows, err = dataset.Validate(g.wrap(upload), cols, &col)
		g.orig = &held{data: col.Data}
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// NewSpoolGroupExec is NewGroupExec over an upload that is already a
// float64 spool someone else owns, reopened through open once per pass
// (a cluster task's spool in the CAS, for one). The evaluator reads it
// in place in stream mode and collects it in memory
// mode; either way its first pass still validates every chunk and counts
// the rows, so a spool that does not hold finite rows of a fixed width
// fails here as the CSV would have. A read error the spool hits on any
// pass comes back as that error, never as an attack outcome. Close
// closes the reader but leaves the spool to its owner.
func NewSpoolGroupExec(env Env, digest string, streamMode bool, chunk int, open func() (io.ReadCloser, error), wrap func(stream.Source) stream.Source) (*GroupExec, error) {
	src, err := dataset.ReadSpool(open, chunk)
	if err != nil {
		return nil, err
	}
	g := newGroupExec(env, digest, streamMode, chunk, src.Cols(), wrap)
	var col stream.Collector
	sink := stream.Sink(discard{})
	if !streamMode {
		sink = &col
	}
	g.rows, err = dataset.Validate(g.wrap(src), g.cols, sink)
	if rerr := src.Err(); rerr != nil {
		err = rerr
	}
	if err != nil {
		src.Close()
		return nil, err
	}
	if streamMode {
		g.orig = &held{src: src}
	} else {
		src.Close()
		g.orig = &held{data: col.Data}
	}
	return g, nil
}

// discard is the sink of a validation pass over rows already held.
type discard struct{}

func (discard) Append(*mat.Dense) error { return nil }

// Close releases the upload: it removes a spool the evaluator wrote and
// closes the reader of a borrowed one. Memory mode holds nothing to
// release.
func (g *GroupExec) Close() { g.orig.close() }

// Rows returns the validated upload's row count.
func (g *GroupExec) Rows() int64 { return g.rows }

// SketchesBuilt returns how many distinct shared sketches have been
// built so far (the original's plus one per evaluated stream group).
func (g *GroupExec) SketchesBuilt() int { return g.sketches.Len() }

func (g *GroupExec) origSrc() stream.Source { return g.wrap(g.orig.source(g.chunk)) }

// origCov memoizes the original's covariance sketch across groups — a
// covariance-hungry defense in every group still costs one pass total.
func (g *GroupExec) origCov() (*mat.Dense, error) {
	mo, err := g.sketches.Get("orig", func() (*stream.Moments, error) {
		return stream.Accumulate(g.origSrc(), 1)
	})
	if err != nil {
		return nil, err
	}
	return mo.Covariance(), nil
}

// keep holds what fill writes the way the mode holds data: resident, or
// in a new disguised spool.
func (g *GroupExec) keep(fill func(stream.Sink) error) (*held, error) {
	if !g.stream {
		var col stream.Collector
		if err := fill(&col); err != nil {
			return nil, err
		}
		return &held{data: col.Data}, nil
	}
	sp, err := dataset.CreateSpool(g.env.FS, g.env.SpoolDir, "randpriv-disg-*.f64", g.cols, fill)
	if err != nil {
		return nil, err
	}
	return openHeld(sp, g.chunk)
}

// Run evaluates one perturbation group — every point in pts shares one
// PerturbKey, and key is that key (the shared-sketch cache slot). The
// group's perturbation runs once, the NDR baseline and moment sketch
// are shared across its points, and each point's report is marshaled to
// its canonical bytes. Parameter rejections land in the outcome (the
// sweep continues); data-plane failures (cancellation, I/O) abort with
// an error, exactly as they would abort a standalone request.
func (g *GroupExec) Run(ctx context.Context, key string, pts []Params) ([]GroupOutcome, error) {
	out := make([]GroupOutcome, len(pts))
	// rejectAll records a group-wide parameter rejection — a calibration
	// the registry refuses, or a defense that overflows float64 — on
	// every point, the way each standalone request would 400.
	rejectAll := func(err error) ([]GroupOutcome, error) {
		if !isParamError(err) {
			return nil, err
		}
		for i := range out {
			out[i].Err = err.Error()
		}
		return out, nil
	}
	groupParams := pts[0]
	bd, err := g.env.BuildDefense(groupParams, g.origCov)
	if err != nil {
		return rejectAll(err)
	}
	disg, err := g.keep(func(sink stream.Sink) error {
		return Perturb(bd, groupParams.Seed, g.origSrc(), sink)
	})
	if err != nil {
		return rejectAll(err)
	}
	defer disg.close()
	disgSrc := func() stream.Source { return g.wrap(disg.source(g.chunk)) }

	var ndr float64
	var sketch core.SketchFn
	if g.stream {
		ndr, err = core.StreamNDRBaseline(g.origSrc(), disgSrc())
		if err != nil {
			return nil, err
		}
		sketch = func() (*stream.Moments, error) {
			return g.sketches.Get(key, func() (*stream.Moments, error) {
				return recon.SketchSource(disgSrc())
			})
		}
	}

	for i, p := range pts {
		body, err := g.point(ctx, p, bd, disg, disgSrc, ndr, sketch)
		if err != nil {
			if isParamError(err) {
				out[i].Err = err.Error()
				continue
			}
			return nil, err
		}
		out[i].Body = body
	}
	return out, nil
}

// point evaluates and marshals one point of a perturbed group.
func (g *GroupExec) point(ctx context.Context, p Params, bd core.BuiltDefense, disg *held, disgSrc func() stream.Source, ndr float64, sketch core.SketchFn) ([]byte, error) {
	var rep *core.PrivacyReport
	var utilities []core.UtilityResult
	var err error
	if g.stream {
		rep, err = g.env.EvaluateStreamPoint(p, g.origSrc(), disgSrc(), bd, &ndr, sketch)
	} else {
		rep, utilities, err = g.env.EvaluateMemoryPoint(ctx, p, g.orig.data, disg.data, bd)
	}
	if err != nil {
		return nil, err
	}
	if err := g.orig.err(); err != nil {
		return nil, err
	}
	if err := disg.err(); err != nil {
		return nil, err
	}
	// A context that died mid-battery is absorbed by the evaluators into
	// per-attack error fields; recording such a report would break
	// byte-equality with the standalone path, which fails the whole
	// request instead.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return MarshalReport(rep, utilities, p, g.rows, g.cols, g.digest)
}

// Execute runs a compiled plan over one upload. The upload is scanned
// once; everything after that reads the copy GroupExec keeps (resident
// or spooled, by the plan's mode) in the same chunk partition as the CSV
// source, so every sketch, baseline and report is bit-identical to a
// one-point plan of the same point. Points whose parameters are rejected
// record the rejection and the sweep continues; data-plane failures
// (cancellation, I/O) abort the whole run, exactly as they would abort a
// standalone request.
func Execute(ctx context.Context, cfg ExecConfig, plan *Plan, upload stream.Source, names []string) (*Result, error) {
	res := &Result{
		Cols:                len(names),
		DatasetSHA256:       cfg.Digest,
		GridPoints:          len(plan.Points) + plan.Collapsed,
		CollapsedDuplicates: plan.Collapsed,
		PlannedPasses:       plan.PlannedPasses,
		SequentialPasses:    plan.SequentialPasses,
		Points:              make([]PointResult, len(plan.Points)),
	}
	for i, pt := range plan.Points {
		res.Points[i] = PointResult{Params: pt.Params, GridIndices: pt.GridIndices}
	}
	wrap := func(s stream.Source) stream.Source {
		return countingSource{src: stream.ContextSource{Ctx: ctx, Src: s}, resets: &res.MeasuredPasses}
	}
	total := int64(len(plan.Points))
	var done int64
	note := func() {
		if cfg.Progress != nil {
			cfg.Progress(done, total)
		}
	}
	note()

	chunk := plan.Points[0].Params.Chunk
	ge, err := NewGroupExec(cfg.Env, cfg.Digest, plan.Stream, chunk, len(names), upload, wrap)
	if err != nil {
		return nil, err
	}
	defer ge.Close()
	res.Rows = ge.Rows()
	defer func() { res.SketchesBuilt = ge.SketchesBuilt() }()

	finish := func(i int, body []byte, cached bool) {
		res.Points[i].Report = json.RawMessage(body[:len(body)-1]) // canonical body minus trailing newline
		res.Points[i].Cached = cached
		done++
		note()
	}
	reject := func(i int, msg string) {
		res.Points[i].Error = msg
		done++
		note()
	}

	for _, g := range plan.Groups {
		// Points already resolved by the shared result cache need no
		// compute; if the whole group is warm, its perturbation pass is
		// skipped entirely.
		var pending []int
		for _, pi := range g.Points {
			p := plan.Points[pi].Params
			if cfg.Cache != nil {
				if body, ok := cfg.Cache.Get(CacheKey(p, cfg.Digest)); ok {
					finish(pi, body, true)
					continue
				}
			}
			pending = append(pending, pi)
		}
		if len(pending) == 0 {
			continue
		}

		pts := make([]Params, len(pending))
		for i, pi := range pending {
			pts[i] = plan.Points[pi].Params
		}
		outcomes, err := ge.Run(ctx, g.Key, pts)
		if err != nil {
			return nil, err
		}
		for i, oc := range outcomes {
			pi := pending[i]
			if oc.Err != "" {
				reject(pi, oc.Err)
				continue
			}
			if cfg.Cache != nil {
				cfg.Cache.Add(CacheKey(pts[i], cfg.Digest), oc.Body)
			}
			finish(pi, oc.Body, false)
		}
	}
	res.SketchesBuilt = ge.SketchesBuilt()
	return res, nil
}

// MarshalResult renders the full-grid report to its wire form (JSON body
// plus trailing newline, like every other randprivd response body).
func MarshalResult(res *Result) ([]byte, error) {
	body, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}
