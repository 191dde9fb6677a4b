package recon

import (
	"errors"
	"fmt"
	"io"

	"randpriv/internal/mat"
	"randpriv/internal/stat"
	"randpriv/internal/stream"
)

// StreamReconstructor is implemented by attacks that can run out-of-core:
// the disguised data arrives as a chunked stream.Source and the estimate
// X̂ leaves through a stream.Sink, chunk by chunk, so memory stays
// O(chunk + m²) regardless of the row count. NDR, PCA-DR and BE-DR
// qualify — they need only the first two sample moments (one sketching
// pass) plus an affine per-row map (a second pass). UDR and SF do not:
// UDR's iteration needs each column's min and max before it can bucket
// the rows into intervals, which no streamed sketch carries yet, and SF
// inspects the full data spectrum.
//
// ReconstructStream calls src.Reset() before each pass, never mutates the
// chunks, and may pass sink.Append a buffer it reuses (the stream.Sink
// contract). The streamed estimate matches the in-memory Reconstruct to
// ≤1e-9 per entry: both paths share the identical estimator; only the
// covariance accumulation order differs (chunk-merged sketch vs. one
// centered Gram), which perturbs the shared arithmetic at the last bits.
type StreamReconstructor interface {
	ReconstructStream(src stream.Source, sink stream.Sink) error
	Name() string
}

// asReconError rewrites a stream.NonFiniteError into the same message
// the in-memory validateNonEmpty produces; other errors pass through.
func asReconError(err error) error {
	var nf *stream.NonFiniteError
	if errors.As(err, &nf) {
		return fmt.Errorf("recon: disguised data contains non-finite value %v at row %d, col %d",
			nf.Val, nf.Row, nf.Col)
	}
	return err
}

// Sketched is implemented by streaming attacks whose pass 1 is exactly
// the shared moment sketch (count, means, covariance) of the disguised
// stream. ReconstructStreamSketched runs the attack against a sketch
// someone else already built — the sweep planner's shared-scan hook: a
// grid of attacks over one disguised stream sketches it once and feeds
// every sketch-consuming attack from the same Moments, to bit-identical
// results (the sketch is a function of the chunk sequence alone).
//
// The caller must pass a sketch built by SketchSource (or an equivalent
// serial chunk-order accumulation) over the same chunk partition src
// yields; mo is treated as read-only.
type Sketched interface {
	StreamReconstructor
	ReconstructStreamSketched(mo *stream.Moments, src stream.Source, sink stream.Sink) error
}

// SketchSource runs the canonical pass 1: accumulate the moment sketch
// of the disguised stream, mapping stream-level failures onto the same
// errors the in-memory validation produces. It is exported so a sweep
// plan can build the one shared sketch with exactly the error semantics
// each attack's own pass 1 would have had.
//
// The sketch is accumulated serially on purpose: Accumulate's parallel
// mode must copy each chunk out of the source's reused buffer before
// handing it to a worker, which would make the attacks' allocation
// footprint grow with n (BenchmarkStreamingAttack pins B/op independent
// of n). The result is identical either way — sketches merge in chunk
// order at any worker count.
func SketchSource(src stream.Source) (*stream.Moments, error) {
	mo, err := stream.Accumulate(src, 1)
	if err != nil {
		if nfErr := asReconError(err); nfErr != err {
			return nil, nfErr
		}
		return nil, fmt.Errorf("recon: streaming pass 1: %w", err)
	}
	if mo.Count() == 0 || mo.Dim() == 0 {
		return nil, fmt.Errorf("recon: empty disguised data (%dx%d)", mo.Count(), mo.Dim())
	}
	return mo, nil
}

// projectChunks runs pass 2: reset src, apply transform to every chunk
// and append the result to sink. transform receives the chunk and must
// return the reconstructed rows (it may return a reused buffer). m is the
// column count pass 1 saw; a source that changes width between passes is
// rejected.
func projectChunks(src stream.Source, sink stream.Sink, m int, transform func(chunk *mat.Dense) *mat.Dense) error {
	if err := src.Reset(); err != nil {
		return fmt.Errorf("recon: streaming pass 2 reset: %w", err)
	}
	for {
		chunk, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("recon: streaming pass 2: %w", err)
		}
		if chunk.Cols() != m {
			return fmt.Errorf("recon: source width changed between passes: %d columns, want %d", chunk.Cols(), m)
		}
		if err := sink.Append(transform(chunk)); err != nil {
			return fmt.Errorf("recon: streaming sink: %w", err)
		}
	}
}

// chunkScratch hands out per-chunk work buffers with the requested column
// widths, reallocating only when the chunk row count changes (in a
// fixed-size chunk stream that is twice: the steady chunk and the final
// partial one), so pass 2 allocates O(1) buffers regardless of n.
type chunkScratch struct {
	widths []int
	bufs   []*mat.Dense
}

func newChunkScratch(widths ...int) *chunkScratch {
	return &chunkScratch{widths: widths}
}

func (s *chunkScratch) get(rows int) []*mat.Dense {
	if s.bufs == nil || s.bufs[0].Rows() != rows {
		s.bufs = make([]*mat.Dense, len(s.widths))
		for i, w := range s.widths {
			s.bufs[i] = mat.Zeros(rows, w)
		}
	}
	return s.bufs
}

// ReconstructStream implements StreamReconstructor: the trivial x̂ = y
// guess is a single validated copy-through pass.
func (NDR) ReconstructStream(src stream.Source, sink stream.Sink) error {
	if err := src.Reset(); err != nil {
		return fmt.Errorf("recon: streaming reset: %w", err)
	}
	var rows int64
	m := 0
	for {
		chunk, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("recon: streaming read: %w", err)
		}
		r, c := chunk.Dims()
		if m == 0 {
			m = c
		}
		if err := stream.ValidateChunk(chunk, rows); err != nil {
			return asReconError(err)
		}
		if err := sink.Append(chunk); err != nil {
			return fmt.Errorf("recon: streaming sink: %w", err)
		}
		rows += int64(r)
	}
	if rows == 0 || m == 0 {
		return fmt.Errorf("recon: empty disguised data (%dx%d)", rows, m)
	}
	return nil
}

// ReconstructStream implements StreamReconstructor for PCA-DR. Pass 1
// sketches the disguised stream into count/means/covariance; the
// Theorem 5.1 recovery, eigendecomposition and component selection are
// the in-memory code. Pass 2 centers each chunk, projects it onto Q̂ and
// restores the means, writing X̂ incrementally.
func (p *PCADR) ReconstructStream(src stream.Source, sink stream.Sink) error {
	mo, err := SketchSource(src)
	if err != nil {
		return err
	}
	return p.ReconstructStreamSketched(mo, src, sink)
}

// ReconstructStreamSketched implements Sketched: PCA-DR with pass 1
// already done.
func (p *PCADR) ReconstructStreamSketched(mo *stream.Moments, src stream.Source, sink stream.Sink) error {
	m := mo.Dim()
	ws := p.WS
	ws.Reset()
	covY := mo.Covariance()
	qhat, _, err := p.projector(ws, m, func() *mat.Dense { return covY })
	if err != nil {
		return err
	}
	comp := qhat.Cols()

	means := mo.Means()
	neg := make([]float64, m)
	for j, v := range means {
		neg[j] = -v
	}
	scratch := newChunkScratch(m, comp, m)
	return projectChunks(src, sink, m, func(chunk *mat.Dense) *mat.Dense {
		bufs := scratch.get(chunk.Rows())
		centered, mid, out := bufs[0], bufs[1], bufs[2]
		copy(centered.Raw(), chunk.Raw())
		stat.AddToColumnsInPlace(centered, neg)
		// X̂c = Yc·Q̂·Q̂ᵀ via the rows×p intermediate; Q̂ᵀ is never
		// materialized.
		mat.MulInto(mid, centered, qhat)
		mat.MulABTInto(out, mid, qhat)
		stat.AddToColumnsInPlace(out, means)
		return out
	})
}

// ReconstructStream implements StreamReconstructor for BE-DR. Pass 1
// sketches the stream; the affine Bayes map (Eq. 11 / Eq. 13) is built by
// the shared estimator; pass 2 applies x̂ = constant + gain·y per chunk.
func (b *BEDR) ReconstructStream(src stream.Source, sink stream.Sink) error {
	mo, err := SketchSource(src)
	if err != nil {
		return err
	}
	return b.ReconstructStreamSketched(mo, src, sink)
}

// ReconstructStreamSketched implements Sketched: BE-DR with pass 1
// already done.
func (b *BEDR) ReconstructStreamSketched(mo *stream.Moments, src stream.Source, sink stream.Sink) error {
	m := mo.Dim()
	ws := b.WS
	ws.Reset()
	constant, gain, err := b.estimator(ws, m,
		func() []float64 { return mo.Means() },
		func() *mat.Dense { return mo.Covariance() })
	if err != nil {
		return err
	}

	scratch := newChunkScratch(m)
	return projectChunks(src, sink, m, func(chunk *mat.Dense) *mat.Dense {
		out := scratch.get(chunk.Rows())[0]
		// x̂ = gain·y per row, applied as y·gainᵀ without materializing
		// the transpose.
		mat.MulABTInto(out, chunk, gain)
		stat.AddToColumnsInPlace(out, constant)
		return out
	})
}
