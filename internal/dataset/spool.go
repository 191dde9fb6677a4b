// Float64 spool — the binary form of a data set behind the CSV edge.
// A CSV upload is decoded once, by the pass that validates it; that
// pass writes the rows into a spool, and every later pass reads the
// spool instead of parsing text again. A spool is a 16-byte header (an
// 8-byte magic, then the column count as a little-endian uint64)
// followed by the rows, row-major, each value the little-endian IEEE
// 754 bits of one float64. The bits are copied verbatim, so a value
// survives a spool exactly as it survives the FormatFloat('g', -1) →
// ParseFloat round trip of CSV — -0, subnormals and ±MaxFloat64
// included. Rows have a fixed width, so row i of an m-column spool
// starts at byte spoolHeaderSize + i·m·8: a spool can be cut at any row
// offset without parsing it.

package dataset

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"randpriv/internal/faultfs"
	"randpriv/internal/mat"
	"randpriv/internal/stream"
)

// spoolHeaderSize is the byte length of a spool header; row data starts
// at this offset.
const spoolHeaderSize = 16

// spoolMagic opens every spool file.
var spoolMagic = [8]byte{'r', 'p', 'f', '6', '4', 's', 'p', '1'}

// maxSpoolCols bounds the column count a header may claim, so a corrupt
// header cannot size a chunk buffer past what any CSV could produce.
const maxSpoolCols = 1 << 24

// spoolIOBytes caps the fixed byte buffer each spool reader and writer
// moves data through: a whole number of float64s, allocated once per
// source or sink and never grown (a reader's is no larger than a chunk).
const spoolIOBytes = 64 << 10

// spoolHeader returns the header bytes of an m-column spool.
func spoolHeader(cols int) []byte {
	h := make([]byte, spoolHeaderSize)
	copy(h, spoolMagic[:])
	binary.LittleEndian.PutUint64(h[8:], uint64(cols))
	return h
}

// readSpoolHeader reads and checks a spool header, returning the column
// count.
func readSpoolHeader(r io.Reader) (cols int, err error) {
	var h [spoolHeaderSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("dataset: spool header truncated")
		}
		return 0, fmt.Errorf("dataset: read spool header: %w", err)
	}
	if [8]byte(h[:8]) != spoolMagic {
		return 0, fmt.Errorf("dataset: not a float64 spool")
	}
	n := binary.LittleEndian.Uint64(h[8:])
	if n < 1 || n > maxSpoolCols {
		return 0, fmt.Errorf("dataset: spool header claims %d columns", n)
	}
	return int(n), nil
}

// SpoolWriter writes a float64 spool incrementally, one chunk of rows
// per Append. It implements stream.Sink.
type SpoolWriter struct {
	w  io.Writer
	m  int
	io []byte // fixed-size encode buffer
	n  int    // bytes of io pending
}

// NewSpoolWriter writes the header for an m-column spool immediately
// and returns the appender. Callers must Flush when done.
func NewSpoolWriter(w io.Writer, cols int) (*SpoolWriter, error) {
	if cols < 1 || cols > maxSpoolCols {
		return nil, fmt.Errorf("dataset: spool of %d columns", cols)
	}
	if _, err := w.Write(spoolHeader(cols)); err != nil {
		return nil, fmt.Errorf("dataset: write spool header: %w", err)
	}
	return &SpoolWriter{w: w, m: cols, io: make([]byte, spoolIOBytes)}, nil
}

// Append implements stream.Sink.
func (w *SpoolWriter) Append(chunk *mat.Dense) error {
	if m := chunk.Cols(); m != w.m {
		return fmt.Errorf("dataset: appending %d-column chunk to %d-column spool", m, w.m)
	}
	for _, v := range chunk.Raw() {
		if w.n == len(w.io) {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		binary.LittleEndian.PutUint64(w.io[w.n:], math.Float64bits(v))
		w.n += 8
	}
	return nil
}

// Flush writes the pending bytes to the underlying writer.
func (w *SpoolWriter) Flush() error {
	if w.n == 0 {
		return nil
	}
	_, err := w.w.Write(w.io[:w.n])
	w.n = 0
	if err != nil {
		return fmt.Errorf("dataset: write spool: %w", err)
	}
	return nil
}

// SpoolSource reads a float64 spool in fixed-size row chunks — the same
// partition a ChunkSource yields over the CSV the spool was written
// from. It implements stream.Source with the borrowed-buffer contract:
// a chunk is valid until the next Next or Reset, and a steady-state Next
// allocates nothing.
type SpoolSource struct {
	open      func() (io.ReadCloser, error)
	chunkRows int
	m         int
	rc        io.ReadCloser
	io        []byte     // fixed-size read buffer
	buf       []float64  // chunkRows·m decode buffer, reused every Next
	full      *mat.Dense // the full-chunk view of buf
	err       error      // first read error returned, if any
}

// ReadSpool builds a chunked source over a reopenable spool stream:
// open is called once per pass (construction counts as the first pass).
func ReadSpool(open func() (io.ReadCloser, error), chunkRows int) (*SpoolSource, error) {
	if chunkRows < 1 {
		return nil, fmt.Errorf("dataset: chunk size %d, want >= 1", chunkRows)
	}
	s := &SpoolSource{open: open, chunkRows: chunkRows}
	if err := s.Reset(); err != nil {
		return nil, err
	}
	return s, nil
}

// Cols returns the spool's column count.
func (s *SpoolSource) Cols() int { return s.m }

// Err returns the first error Next or Reset has returned, if any. A
// consumer that records source errors instead of returning them (the
// attack battery files them per attack) checks it after its passes: a
// failed spool read is a storage fault, never an attack outcome.
func (s *SpoolSource) Err() error { return s.err }

// Reset implements stream.Source: it closes the current reader, reopens
// the stream and re-reads the header, checking the column count has not
// changed between passes.
func (s *SpoolSource) Reset() error {
	if err := s.Close(); err != nil {
		return s.fail(err)
	}
	rc, err := s.open()
	if err != nil {
		return s.fail(fmt.Errorf("dataset: reopen spool: %w", err))
	}
	m, err := readSpoolHeader(rc)
	if err != nil {
		rc.Close()
		return s.fail(err)
	}
	if s.buf == nil {
		s.m = m
		s.io = make([]byte, min(spoolIOBytes, s.chunkRows*m*8))
		s.buf = make([]float64, s.chunkRows*m)
		s.full = mat.New(s.chunkRows, m, s.buf)
	} else if m != s.m {
		rc.Close()
		return s.fail(fmt.Errorf("dataset: spool changed between passes: %d columns, want %d", m, s.m))
	}
	s.rc = rc
	return nil
}

// Next implements stream.Source, returning up to chunkRows rows. The
// returned matrix aliases the source's reused buffer.
func (s *SpoolSource) Next() (*mat.Dense, error) {
	if s.rc == nil {
		return nil, s.fail(fmt.Errorf("dataset: spool source is closed"))
	}
	want := len(s.buf) * 8
	got := 0
	for got < want {
		k, err := io.ReadFull(s.rc, s.io[:min(want-got, len(s.io))])
		for i := 0; i+8 <= k; i += 8 {
			s.buf[(got+i)/8] = math.Float64frombits(binary.LittleEndian.Uint64(s.io[i:]))
		}
		got += k
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return nil, s.fail(fmt.Errorf("dataset: read spool: %w", err))
		}
	}
	rowBytes := s.m * 8
	if got%rowBytes != 0 {
		return nil, s.fail(fmt.Errorf("dataset: spool truncated mid-row (%d stray bytes)", got%rowBytes))
	}
	rows := got / rowBytes
	switch rows {
	case 0:
		return nil, io.EOF
	case s.chunkRows:
		return s.full, nil
	}
	return mat.New(rows, s.m, s.buf[:rows*s.m]), nil
}

// fail records the first error the source returns.
func (s *SpoolSource) fail(err error) error {
	if s.err == nil {
		s.err = err
	}
	return err
}

// Close releases the underlying reader. The source can be revived with
// Reset.
func (s *SpoolSource) Close() error {
	if s.rc == nil {
		return nil
	}
	err := s.rc.Close()
	s.rc = nil
	return err
}

// WriteSpool writes a whole cols-column spool to w: the header, then
// every chunk fill appends, then the final flush. Errors come back
// unchanged, like CreateSpool's.
func WriteSpool(w io.Writer, cols int, fill func(stream.Sink) error) error {
	sw, err := NewSpoolWriter(w, cols)
	if err == nil {
		err = fill(sw)
	}
	if err == nil {
		err = sw.Flush()
	}
	return err
}

// Spool is a float64 spool file on a faultfs.FS: an upload after its
// validation pass, or a disguised copy under attack. It is created,
// reopened and removed through that FS, so storage faults injected
// there reach every pass.
type Spool struct {
	fs   faultfs.FS
	path string
}

// CreateSpool creates a float64 spool of a cols-column data set in dir
// (the name follows pattern, as in os.CreateTemp) and fills it through
// fill. A failed fill, write or close removes the partial file and
// returns the error unchanged, so a fill's own classification (a client
// data error, a parameter rejection) survives and a storage fault stays
// a storage fault. A nil fsys is the OS filesystem.
func CreateSpool(fsys faultfs.FS, dir, pattern string, cols int, fill func(stream.Sink) error) (*Spool, error) {
	fsys = faultfs.Default(fsys)
	f, err := fsys.CreateTemp(dir, pattern)
	if err != nil {
		return nil, fmt.Errorf("dataset: create spool: %w", err)
	}
	err = WriteSpool(f, cols, fill)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(f.Name())
		return nil, err
	}
	return &Spool{fs: fsys, path: f.Name()}, nil
}

// Open returns a chunked source over the spool.
func (sp *Spool) Open(chunkRows int) (*SpoolSource, error) {
	return ReadSpool(func() (io.ReadCloser, error) { return sp.fs.Open(sp.path) }, chunkRows)
}

// Remove deletes the spool file.
func (sp *Spool) Remove() {
	if sp != nil {
		sp.fs.Remove(sp.path)
	}
}

// DataError marks a client-data failure the validation pass found: a
// value that does not parse, a non-finite value, a ragged row or an
// empty data set. Error() is the inner message unchanged.
type DataError struct{ Err error }

func (e *DataError) Error() string { return e.Err.Error() }
func (e *DataError) Unwrap() error { return e.Err }

// Validate is the fail-fast pass over an upload, the only CSV decode it
// gets: it reads src once from the start, checks every chunk
// (stream.ValidateChunk) and appends it to sink, so malformed data
// fails before any compute and every later pass reads sink's copy
// instead of the CSV. Bad data and an empty data set come back as
// *DataError; a failing sink or Reset passes through unchanged.
func Validate(src stream.Source, cols int, sink stream.Sink) (int64, error) {
	if err := src.Reset(); err != nil {
		return 0, err
	}
	var rows int64
	for {
		chunk, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, &DataError{err}
		}
		if err := stream.ValidateChunk(chunk, rows); err != nil {
			return 0, &DataError{err}
		}
		if err := sink.Append(chunk); err != nil {
			return 0, err
		}
		rows += int64(chunk.Rows())
	}
	if rows == 0 || cols == 0 {
		return 0, &DataError{fmt.Errorf("dataset: empty data set (%d rows, %d columns)", rows, cols)}
	}
	return rows, nil
}

// ValidateSpool runs Validate into a new upload spool in dir, returning
// the spool and the row count. On error no file is left behind.
func ValidateSpool(fsys faultfs.FS, dir string, src stream.Source, cols int) (*Spool, int64, error) {
	var rows int64
	sp, err := CreateSpool(fsys, dir, "randpriv-upload-*.f64", cols, func(sink stream.Sink) error {
		var err error
		rows, err = Validate(src, cols, sink)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return sp, rows, nil
}
