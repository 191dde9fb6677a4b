package dataset

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"randpriv/internal/mat"
)

// spoolBytes writes data as one spool and returns the file bytes.
func spoolBytes(t *testing.T, data *mat.Dense) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewSpoolWriter(&buf, data.Cols())
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(data); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func bytesOpener(b []byte) func() (io.ReadCloser, error) {
	return func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(b)), nil }
}

// readAll drains one pass of src, copying each chunk.
func readAll(t *testing.T, src *SpoolSource) []*mat.Dense {
	t.Helper()
	var out []*mat.Dense
	for {
		chunk, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, chunk.Clone())
	}
}

func TestSpoolSpecialValuesBitExact(t *testing.T) {
	values := [][]float64{
		{math.Copysign(0, -1), 0},
		{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64},
		{2.2250738585072009e-308, 4.9e-324}, // largest subnormal, smallest subnormal
		{math.MaxFloat64, -math.MaxFloat64},
		{1.0000000000000002, -42},
	}
	src, err := ReadSpool(bytesOpener(spoolBytes(t, mat.NewFromRows(values))), 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, c := range readAll(t, src) {
		got = append(got, c.Raw()...)
	}
	var want []float64
	for _, row := range values {
		want = append(want, row...)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("value %d: bits %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestSpoolMatchesCSVPartition: a spool written from a CSV's chunks
// reads back in the same partition with the same bits as the CSV itself,
// at chunk sizes below, at and above the row count.
func TestSpoolMatchesCSVPartition(t *testing.T) {
	const csvData = "a,b,c\n1,2,3\n4.5,-0,6e-310\n7,8,9\n1e300,-1e-300,0.1\n13,14,15\n"
	for _, chunk := range []int{1, 2, 3, 5, 100} {
		csvSrc, err := ReadCSVChunks(stringOpener(csvData), chunk)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sw, err := NewSpoolWriter(&buf, 3)
		if err != nil {
			t.Fatal(err)
		}
		var want []*mat.Dense
		for {
			c, err := csvSrc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, c.Clone())
			if err := sw.Append(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Flush(); err != nil {
			t.Fatal(err)
		}
		src, err := ReadSpool(bytesOpener(buf.Bytes()), chunk)
		if err != nil {
			t.Fatal(err)
		}
		got := readAll(t, src)
		if len(got) != len(want) {
			t.Fatalf("chunk=%d: spool gave %d chunks, CSV %d", chunk, len(got), len(want))
		}
		for i := range want {
			if got[i].Rows() != want[i].Rows() {
				t.Fatalf("chunk=%d: chunk %d has %d rows, want %d", chunk, i, got[i].Rows(), want[i].Rows())
			}
			for k, v := range want[i].Raw() {
				if math.Float64bits(got[i].Raw()[k]) != math.Float64bits(v) {
					t.Fatalf("chunk=%d: chunk %d value %d differs", chunk, i, k)
				}
			}
		}
	}
}

// TestSpoolRejectsDamage: a damaged spool is an error at open or at the
// first Next that reaches the damage — never a panic, never silently
// short data.
func TestSpoolRejectsDamage(t *testing.T) {
	good := spoolBytes(t, mat.NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}}))
	huge := spoolHeader(1)
	huge[8+7] = 0x7f // a column count no CSV could have
	for name, b := range map[string][]byte{
		"empty":            nil,
		"truncated header": good[:spoolHeaderSize-3],
		"bad magic":        append([]byte("notaspoo"), good[8:]...),
		"zero columns":     spoolHeader(0),
		"huge columns":     huge,
		"truncated row":    good[:len(good)-8],
		"misaligned tail":  append(append([]byte{}, good...), 1, 2, 3),
	} {
		src, err := ReadSpool(bytesOpener(b), 2)
		if err != nil {
			continue // refused at open
		}
		var readErr error
		for readErr == nil {
			_, readErr = src.Next()
		}
		if readErr == io.EOF {
			t.Errorf("%s: read to EOF without an error", name)
			continue
		}
		if src.Err() != readErr {
			t.Errorf("%s: Err() = %v, want the returned %v", name, src.Err(), readErr)
		}
	}
}

func TestSpoolResetMidPass(t *testing.T) {
	data := mat.NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}})
	src, err := ReadSpool(bytesOpener(spoolBytes(t, data)), 2)
	if err != nil {
		t.Fatal(err)
	}
	first := readAll(t, src)
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if err := src.Reset(); err != nil { // abandon the pass after one chunk
		t.Fatal(err)
	}
	again := readAll(t, src)
	if len(again) != len(first) {
		t.Fatalf("pass after a mid-pass Reset gave %d chunks, want %d", len(again), len(first))
	}
	for i := range first {
		if !again[i].Equal(first[i]) {
			t.Fatalf("chunk %d differs after a mid-pass Reset", i)
		}
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err == nil {
		t.Fatal("Next on a closed source succeeded")
	}
}

func TestSpoolColumnsChangeBetweenPasses(t *testing.T) {
	two := spoolBytes(t, mat.NewFromRows([][]float64{{1, 2}}))
	three := spoolBytes(t, mat.NewFromRows([][]float64{{1, 2, 3}}))
	pass := 0
	src, err := ReadSpool(func() (io.ReadCloser, error) {
		pass++
		if pass > 1 {
			return io.NopCloser(bytes.NewReader(three)), nil
		}
		return io.NopCloser(bytes.NewReader(two)), nil
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Reset(); err == nil || !strings.Contains(err.Error(), "changed between passes") {
		t.Fatalf("Reset over a re-shaped spool: %v, want a changed-between-passes error", err)
	}
}

func TestSpoolWriterWidthMismatch(t *testing.T) {
	sw, err := NewSpoolWriter(io.Discard, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(mat.Zeros(1, 3)); err == nil {
		t.Fatal("appending a 3-column chunk to a 2-column spool succeeded")
	}
	if _, err := NewSpoolWriter(io.Discard, 0); err == nil {
		t.Fatal("a 0-column spool writer was created")
	}
}

// TestSpoolNextAllocatesNothing pins the borrowed-buffer contract's
// point: a steady-state Next decodes into buffers sized at open and
// allocates nothing.
func TestSpoolNextAllocatesNothing(t *testing.T) {
	const chunk, cols = 8, 5
	data := mat.Zeros(chunk*300, cols)
	for i := range data.Raw() {
		data.Raw()[i] = float64(i) / 7
	}
	src, err := ReadSpool(bytesOpener(spoolBytes(t, data)), chunk)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := src.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Next allocates %.1f times per call, want 0", allocs)
	}
}
