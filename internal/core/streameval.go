package core

import (
	"fmt"
	"io"
	"math"

	"randpriv/internal/mat"
	"randpriv/internal/recon"
	"randpriv/internal/stat"
	"randpriv/internal/stream"
)

// diffSink scores a streamed reconstruction against a reference source
// without materializing either side: as X̂ chunks arrive it pulls the
// matching rows from the reference stream and accumulates squared errors.
// Chunk boundaries need not line up — a row cursor tracks the partially
// consumed reference chunk (the reference chunk is copied, because
// sources may reuse their buffers; the copy reuses one buffer while the
// chunk shape holds, so a pass allocates per shape, not per chunk).
type diffSink struct {
	ref     stream.Source
	refBuf  *mat.Dense // current (copied) reference chunk
	refPos  int        // rows of refBuf already consumed
	rows    int64
	m       int
	sse     float64
	colSSE  []float64
	started bool
}

func newDiffSink(ref stream.Source) (*diffSink, error) {
	if err := ref.Reset(); err != nil {
		return nil, fmt.Errorf("core: reset reference source: %w", err)
	}
	return &diffSink{ref: ref}, nil
}

// Append implements stream.Sink.
func (d *diffSink) Append(chunk *mat.Dense) error {
	n, m := chunk.Dims()
	if !d.started {
		d.started = true
		d.m = m
		d.colSSE = make([]float64, m)
	} else if m != d.m {
		return fmt.Errorf("core: reconstruction width changed from %d to %d columns", d.m, m)
	}
	for i := 0; i < n; i++ {
		refRow, err := d.nextRefRow(m)
		if err != nil {
			return err
		}
		row := chunk.RawRow(i)
		for j, v := range row {
			diff := v - refRow[j]
			d.sse += diff * diff
			d.colSSE[j] += diff * diff
		}
		d.rows++
	}
	return nil
}

func (d *diffSink) nextRefRow(m int) ([]float64, error) {
	for d.refBuf == nil || d.refPos >= d.refBuf.Rows() {
		chunk, err := d.ref.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("core: reconstruction has more rows than the original data")
		}
		if err != nil {
			return nil, fmt.Errorf("core: read original data: %w", err)
		}
		if chunk.Cols() != m {
			return nil, fmt.Errorf("core: original data has %d columns, reconstruction has %d", chunk.Cols(), m)
		}
		if d.refBuf != nil && d.refBuf.Rows() == chunk.Rows() {
			copy(d.refBuf.Raw(), chunk.Raw())
		} else {
			d.refBuf = chunk.Clone()
		}
		d.refPos = 0
	}
	row := d.refBuf.RawRow(d.refPos)
	d.refPos++
	return row, nil
}

// finish verifies the reference stream was fully consumed and returns
// the overall and per-column RMSE.
func (d *diffSink) finish() (float64, []float64, error) {
	if d.refBuf != nil && d.refPos < d.refBuf.Rows() {
		return 0, nil, fmt.Errorf("core: reconstruction has fewer rows than the original data")
	}
	if _, err := d.ref.Next(); err != io.EOF {
		if err != nil {
			return 0, nil, fmt.Errorf("core: read original data: %w", err)
		}
		return 0, nil, fmt.Errorf("core: reconstruction has fewer rows than the original data")
	}
	if d.rows == 0 {
		return 0, nil, fmt.Errorf("core: empty reconstruction")
	}
	rmse := math.Sqrt(d.sse / float64(d.rows*int64(d.m)))
	colRMSE := make([]float64, d.m)
	for j, ss := range d.colSSE {
		colRMSE[j] = math.Sqrt(ss / float64(d.rows))
	}
	return rmse, colRMSE, nil
}

// SketchFn lazily supplies the disguised stream's shared moment sketch.
// The sweep executor hands one backed by a stream.SketchCache, so a grid
// of attacks over the same disguised data builds the sketch exactly once;
// per-request paths pass nil and every attack runs its own pass 1. A
// SketchFn must be equivalent to recon.SketchSource over the same chunk
// partition — same sketch bits, same error surface — so the two paths
// stay byte-identical.
type SketchFn func() (*stream.Moments, error)

// StreamNDRBaseline scores the trivial x̂ = y attack against the
// original stream: one disguised read plus one original diff pull. It is
// split out of EvaluateStream so a sweep plan can compute the baseline
// once per disguised materialization and reuse the value across every
// grid point that shares it (the baseline depends only on the two
// streams, never on the battery).
func StreamNDRBaseline(original, disguised stream.Source) (float64, error) {
	sink, err := newDiffSink(original)
	if err != nil {
		return 0, err
	}
	if err := (recon.NDR{}).ReconstructStream(disguised, sink); err != nil {
		return 0, err
	}
	ndr, _, err := sink.finish()
	return ndr, err
}

// EvaluateStreamWith runs the streaming battery against a precomputed
// NDR baseline. Attacks implementing recon.Sketched pull pass 1 from
// sketch when one is supplied; everything else (and every attack when
// sketch is nil) scans the disguised stream itself. This is the
// battery-evaluation half of EvaluateStream with the data scanning made
// injectable — the decoupling that lets one shared sketch set feed many
// grid-point evaluations.
func EvaluateStreamWith(original, disguised stream.Source, schemeDesc string, ndr float64, attacks []recon.StreamReconstructor, sketch SketchFn) (*PrivacyReport, error) {
	runOne := func(r recon.StreamReconstructor) (float64, []float64, error) {
		sink, err := newDiffSink(original)
		if err != nil {
			return 0, nil, err
		}
		if sk, ok := r.(recon.Sketched); ok && sketch != nil {
			mo, err := sketch()
			if err != nil {
				return 0, nil, err
			}
			if err := sk.ReconstructStreamSketched(mo, disguised, sink); err != nil {
				return 0, nil, err
			}
		} else if err := r.ReconstructStream(disguised, sink); err != nil {
			return 0, nil, err
		}
		return sink.finish()
	}

	report := &PrivacyReport{Scheme: schemeDesc, NDRBaseline: ndr}
	for _, a := range attacks {
		rmse, colRMSE, err := runOne(a)
		if err != nil {
			report.Results = append(report.Results, AttackResult{Attack: a.Name(), Err: err})
			continue
		}
		report.Results = append(report.Results, AttackResult{
			Attack:     a.Name(),
			RMSE:       rmse,
			ColumnRMSE: colRMSE,
			GainVsNDR:  stat.PrivacyGain(rmse, ndr),
		})
	}
	sortResults(report.Results)
	return report, nil
}

// EvaluateStream is the out-of-core counterpart of Evaluate: both the
// original and the disguised data arrive as chunked sources (typically
// dataset.ChunkSource over CSV files) and every attack runs in streaming
// mode, so the privacy report is produced with O(chunk + m²) memory
// regardless of the data set size. The NDR baseline is scored the same
// way, by streaming the disguised data through the trivial attack.
func EvaluateStream(original, disguised stream.Source, schemeDesc string, attacks []recon.StreamReconstructor) (*PrivacyReport, error) {
	ndr, err := StreamNDRBaseline(original, disguised)
	if err != nil {
		return nil, fmt.Errorf("core: NDR baseline: %w", err)
	}
	return EvaluateStreamWith(original, disguised, schemeDesc, ndr, attacks, nil)
}
