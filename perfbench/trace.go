package main

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"time"

	"randpriv/internal/core"
	"randpriv/internal/dataset"
	"randpriv/internal/mat"
	"randpriv/internal/randomize"
	"randpriv/internal/recon"
	"randpriv/internal/stream"
)

// span is one timed interval of the traced replay. Spans of one replayed
// op share Op; Parent indexes the recorder's span list (-1 for the op's
// root span).
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the replay's spans in memory until the run ends. The
// replay drives every layer from one goroutine, so the span open when a
// new one begins is its parent. With on == false it records nothing: the
// spans-off side of the tracing-overhead measurement runs the same code.
type recorder struct {
	on    bool
	op    int
	epoch time.Time
	cur   int
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), cur: -1} }

func (r *recorder) begin(name string) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Op: r.op, Name: name, Parent: r.cur, Start: int64(time.Since(r.epoch))})
	r.cur = len(r.spans) - 1
	return r.cur
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
	r.cur = r.spans[id].Parent
}

// do runs f inside a span called name.
func (r *recorder) do(name string, f func() error) error {
	id := r.begin(name)
	err := f()
	r.end(id)
	return err
}

// times sums, per span name, the self time and the total duration of
// op's spans. A span's self time is its duration minus the part its
// children cover.
func (r *recorder) times(op int) (self, total map[string]time.Duration) {
	children := make(map[int]time.Duration)
	for _, s := range r.spans {
		if s.Op == op && s.Parent >= 0 {
			children[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	self = make(map[string]time.Duration)
	total = make(map[string]time.Duration)
	for i, s := range r.spans {
		if s.Op != op {
			continue
		}
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d - children[i]
		total[s.Name] += d
	}
	return self, total
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decodeCount tallies full CSV decodes: every Reset of a CSV source
// starts one pass over its file.
type decodeCount struct {
	passes int64
	bytes  int64
}

// decodeSource wraps a dataset.ChunkSource so each Next (and the header
// re-read in Reset) is a dataset.decode span, nested under whichever
// stage pulled the chunk.
type decodeSource struct {
	src   *dataset.ChunkSource
	rec   *recorder
	size  int64
	count *decodeCount
}

func (s *decodeSource) Next() (*mat.Dense, error) {
	id := s.rec.begin("dataset.decode")
	c, err := s.src.Next()
	s.rec.end(id)
	return c, err
}

func (s *decodeSource) Reset() error {
	s.count.passes++
	s.count.bytes += s.size
	return s.rec.do("dataset.decode", s.src.Reset)
}

// encodeSink times dataset.ChunkWriter appends of the disguised spool.
type encodeSink struct {
	w   *dataset.ChunkWriter
	rec *recorder
}

func (s encodeSink) Append(chunk *mat.Dense) error {
	id := s.rec.begin("dataset.encode")
	err := s.w.Append(chunk)
	s.rec.end(id)
	return err
}

// tracedScheme records PerturbStream as a randomize.perturb span; its
// decode and encode children make the rest of it self time.
type tracedScheme struct {
	randomize.StreamScheme
	rec *recorder
}

func (t tracedScheme) PerturbStream(src stream.Source, sink stream.Sink, rng *rand.Rand) error {
	return t.rec.do("randomize.perturb", func() error { return t.StreamScheme.PerturbStream(src, sink, rng) })
}

// tracedAttack records an in-memory Reconstruct.
type tracedAttack struct {
	recon.Reconstructor
	span string
	rec  *recorder
}

func (a tracedAttack) Reconstruct(y *mat.Dense) (x *mat.Dense, err error) {
	err = a.rec.do(a.span, func() error {
		x, err = a.Reconstructor.Reconstruct(y)
		return err
	})
	return x, err
}

// tracedSketched records a two-pass streaming attack. Its
// ReconstructStream is the attack's own, split at the pass boundary:
// recon.SketchSource (a stream.sketch span) and then
// ReconstructStreamSketched (the attack's span). That is exactly what
// the library's PCA-DR and BE-DR ReconstructStream do; the byte check
// against the HTTP response holds the split to it.
type tracedSketched struct {
	inner recon.Sketched
	span  string
	rec   *recorder
}

func (a tracedSketched) Name() string { return a.inner.Name() }

func (a tracedSketched) ReconstructStream(src stream.Source, sink stream.Sink) error {
	var mo *stream.Moments
	if err := a.rec.do("stream.sketch", func() (err error) {
		mo, err = recon.SketchSource(src)
		return err
	}); err != nil {
		return err
	}
	return a.ReconstructStreamSketched(mo, src, sink)
}

func (a tracedSketched) ReconstructStreamSketched(mo *stream.Moments, src stream.Source, sink stream.Sink) error {
	return a.rec.do(a.span, func() error { return a.inner.ReconstructStreamSketched(mo, src, sink) })
}

// attackSpans names each traced attack's span after the recon layer
// metric it feeds; the registry calls UDR "asr". Attacks no workload
// runs stay unwrapped.
var attackSpans = map[string]string{
	"asr":   "recon.udr",
	"sf":    "recon.sf",
	"pcadr": "recon.pcadr",
	"bedr":  "recon.bedr",
}

// tracedRegistry copies the builtin operator catalogue with every
// defense's scheme and every attack wrapped in span-recording shims, so
// the library's own orchestration (sweep.Env, sweep.GroupExec) runs
// unchanged with spans at the randomize and recon boundaries.
func tracedRegistry(rec *recorder) (*core.Registry, error) {
	base := core.Builtins()
	reg := core.NewRegistry()
	for _, mode := range base.DefenseModes() {
		spec, err := base.LookupDefense(mode)
		if err != nil {
			return nil, err
		}
		build := spec.Build
		spec.Build = func(ctx core.DefenseContext) (core.BuiltDefense, error) {
			bd, err := build(ctx)
			if err == nil && bd.Scheme != nil {
				bd.Scheme = tracedScheme{StreamScheme: bd.Scheme, rec: rec}
			}
			return bd, err
		}
		if err := reg.RegisterDefense(spec); err != nil {
			return nil, err
		}
	}
	for _, mode := range base.AttackModes() {
		spec, err := base.LookupAttack(mode)
		if err != nil {
			return nil, err
		}
		if name, ok := attackSpans[mode]; ok {
			traceAttack(&spec, name, rec)
		}
		if err := reg.RegisterAttack(spec); err != nil {
			return nil, err
		}
	}
	for _, mode := range base.UtilityModes() {
		spec, err := base.LookupUtility(mode)
		if err != nil {
			return nil, err
		}
		if err := reg.RegisterUtility(spec); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// traceAttack wraps an attack's builders so an in-memory Reconstruct and
// a two-pass streamed attack record spans called name. A streamed attack
// without a sketch runs unwrapped: no workload uses one.
func traceAttack(spec *core.AttackSpec, name string, rec *recorder) {
	build := spec.Build
	spec.Build = func(ctx core.AttackContext) (recon.Reconstructor, error) {
		a, err := build(ctx)
		if err != nil {
			return nil, err
		}
		return tracedAttack{Reconstructor: a, span: name, rec: rec}, nil
	}
	if buildStream := spec.BuildStream; buildStream != nil {
		spec.BuildStream = func(ctx core.AttackContext) (recon.StreamReconstructor, error) {
			a, err := buildStream(ctx)
			if sk, ok := a.(recon.Sketched); ok && err == nil {
				return tracedSketched{inner: sk, span: name, rec: rec}, nil
			}
			return a, err
		}
	}
}
