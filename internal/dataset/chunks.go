// Chunked CSV I/O — the disk-backed endpoints of the streaming pipeline.
// A ChunkSource re-reads a CSV any number of times (the two-pass attacks
// need pass 1 for the moment sketch and pass 2 for the projection) while
// holding only one chunk in memory; a ChunkWriter appends reconstructed
// or perturbed chunks incrementally. Both honor the stream package's
// borrowed-buffer contract.

package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"randpriv/internal/mat"
)

// ChunkSource reads a headered CSV in fixed-size row chunks. It
// implements stream.Source: Next yields chunks that are only valid until
// the following Next/Reset call (the decode buffer is reused), and Reset
// reopens the underlying reader for another pass.
type ChunkSource struct {
	open      func() (io.ReadCloser, error)
	chunkRows int
	names     []string
	rc        io.ReadCloser
	cr        *csv.Reader
	lineNo    int
	buf       []float64 // chunkRows·m backing array, reused every Next
}

// ReadCSVChunks builds a chunked source over a reopenable CSV stream:
// open is called once per pass (construction counts as the first pass).
// chunkRows is the number of data rows per chunk.
func ReadCSVChunks(open func() (io.ReadCloser, error), chunkRows int) (*ChunkSource, error) {
	if chunkRows < 1 {
		return nil, fmt.Errorf("dataset: chunk size %d, want >= 1", chunkRows)
	}
	s := &ChunkSource{open: open, chunkRows: chunkRows}
	if err := s.Reset(); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenCSVChunks is ReadCSVChunks over a file path.
func OpenCSVChunks(path string, chunkRows int) (*ChunkSource, error) {
	return ReadCSVChunks(func() (io.ReadCloser, error) { return os.Open(path) }, chunkRows)
}

// Names returns a copy of the attribute names from the header row.
func (s *ChunkSource) Names() []string { return append([]string(nil), s.names...) }

// Reset implements stream.Source: it closes the current reader, reopens
// the stream, and re-reads the header (verifying it has not changed
// between passes — a mutated file would silently misalign the two-pass
// attacks).
func (s *ChunkSource) Reset() error {
	if err := s.Close(); err != nil {
		return err
	}
	rc, err := s.open()
	if err != nil {
		return fmt.Errorf("dataset: reopen: %w", err)
	}
	cr := csv.NewReader(rc)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		rc.Close()
		return fmt.Errorf("dataset: read header: %w", err)
	}
	if s.names == nil {
		if err := validateNames(header); err != nil {
			rc.Close()
			return err
		}
		s.names = append([]string(nil), header...)
		s.buf = make([]float64, s.chunkRows*len(header))
	} else if len(header) != len(s.names) {
		rc.Close()
		return fmt.Errorf("dataset: header changed between passes: %d columns, want %d", len(header), len(s.names))
	} else {
		for j, n := range header {
			if n != s.names[j] {
				rc.Close()
				return fmt.Errorf("dataset: header changed between passes: column %d is %q, want %q", j, n, s.names[j])
			}
		}
	}
	s.rc, s.cr = rc, cr
	s.lineNo = 1
	return nil
}

// Next implements stream.Source, returning up to chunkRows decoded rows.
// The returned matrix aliases the source's reused buffer.
func (s *ChunkSource) Next() (*mat.Dense, error) {
	if s.cr == nil {
		return nil, fmt.Errorf("dataset: source is closed")
	}
	m := len(s.names)
	rows := 0
	for rows < s.chunkRows {
		rec, err := s.cr.Read()
		if err == io.EOF {
			break
		}
		s.lineNo++
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		if len(rec) != m {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d", s.lineNo, len(rec), m)
		}
		if err := parseRecord(rec, s.names, s.lineNo, s.buf[rows*m:]); err != nil {
			return nil, err
		}
		rows++
	}
	if rows == 0 {
		return nil, io.EOF
	}
	return mat.New(rows, m, s.buf[:rows*m]), nil
}

// Close releases the underlying reader. The source can be revived with
// Reset.
func (s *ChunkSource) Close() error {
	if s.rc == nil {
		return nil
	}
	err := s.rc.Close()
	s.rc, s.cr = nil, nil
	return err
}

// ChunkWriter writes a headered CSV incrementally, one chunk of rows per
// Append. It implements stream.Sink and produces byte-identical output to
// Table.WriteCSV over the concatenated chunks.
type ChunkWriter struct {
	cw   *csv.Writer
	m    int
	rec  []string
	rows int64
}

// NewChunkWriter writes the header row immediately and returns the
// appender. Callers must Flush when done.
func NewChunkWriter(w io.Writer, names []string) (*ChunkWriter, error) {
	if err := validateNames(names); err != nil {
		return nil, err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(names); err != nil {
		return nil, fmt.Errorf("dataset: write header: %w", err)
	}
	return &ChunkWriter{cw: cw, m: len(names), rec: make([]string, len(names))}, nil
}

// Append implements stream.Sink.
func (w *ChunkWriter) Append(chunk *mat.Dense) error {
	n, m := chunk.Dims()
	if m != w.m {
		return fmt.Errorf("dataset: appending %d-column chunk to %d-column CSV", m, w.m)
	}
	for i := 0; i < n; i++ {
		raw := chunk.RawRow(i)
		for j, v := range raw {
			w.rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := w.cw.Write(w.rec); err != nil {
			return fmt.Errorf("dataset: write row %d: %w", w.rows+int64(i), err)
		}
	}
	w.rows += int64(n)
	return nil
}

// Rows returns the number of data rows appended so far.
func (w *ChunkWriter) Rows() int64 { return w.rows }

// Flush writes any buffered data to the underlying writer.
func (w *ChunkWriter) Flush() error {
	w.cw.Flush()
	return w.cw.Error()
}
