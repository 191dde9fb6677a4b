package dataset

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

// FuzzReadCSV hammers the one-shot CSV decoder: whatever the bytes,
// ReadCSV must return a table or an error — never panic — and an
// accepted table must be internally consistent and re-encodable.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"a,b\n1,2\n3,4\n",              // well-formed
		"a,b\n1,2\n3\n",                // ragged row (fewer fields)
		"a,b\n1,2,3\n",                 // ragged row (more fields)
		"a,b\nNaN,2\n",                 // NaN
		"a,b\n+Inf,2\n",                // +Inf
		"a,b\n-Inf,2\n",                // -Inf
		"a,b\n,2\n",                    // empty field
		"a,b\n1e999,2\n",               // huge exponent -> ParseFloat range error
		"a,b\n-1e-999,2\n",             // tiny exponent (subnormal underflow)
		"a,b\n0x1p4,2\n",               // hex float syntax
		"",                             // empty input
		"a,b\n",                        // header only
		"a,a\n1,2\n",                   // duplicate names
		",\n1,2\n",                     // empty names
		"a\n\"\n",                      // unterminated quote
		"a,b\r\n1,2\r\n",               // CRLF
		"\xff\xfe\n1\n",                // invalid UTF-8 header
		"a;b\n1;2\n",                   // wrong delimiter (single column)
		"a,b\n 1 , 2 \n",               // padded fields
		"a,b\n\n1,2\n",                 // blank line (skipped by csv)
		"a,b\n\"1\",\"2\"\n",           // quoted numbers
		"a,b\n1,2\n\"3,4\n",            // quote opened mid-file
		"a,b\n9223372036854775807,2\n", // int64 max as float
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted tables must be self-consistent…
		n, m := tbl.Dims()
		if len(tbl.Names()) != m {
			t.Fatalf("names %d != cols %d", len(tbl.Names()), m)
		}
		// …and re-encodable: WriteCSV then ReadCSV must round-trip the
		// shape (values are formatted shortest-exact, so they round-trip
		// too, but shape is the invariant malformed input could break).
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV of accepted table: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("ReadCSV of WriteCSV output: %v", err)
		}
		if bn, bm := back.Dims(); bn != n || bm != m {
			t.Fatalf("round-trip dims %dx%d, want %dx%d", bn, bm, n, m)
		}
	})
}

// FuzzChunkSource feeds the same corpus through the chunked reader and
// checks it agrees with ReadCSV: both accept (with identical decoded
// shape) or both reject. The chunked path is what the server trusts with
// raw uploads, so it must be exactly as strict as the in-memory one.
// Every accepted CSV must also survive the float64 spool the server
// writes during validation: read back at the same chunk size, the spool
// yields the same chunk partition and the same bits.
func FuzzChunkSource(f *testing.F) {
	f.Add([]byte("a,b\n1,2\n3,4\n5,6\n"), 2)
	f.Add([]byte("a,b\n1,2\n3\n"), 1)
	f.Add([]byte("a,b\nNaN,2\n"), 3)
	f.Add([]byte(""), 1)
	f.Add([]byte("a,b\n1e999,2\n"), 2)
	f.Fuzz(func(t *testing.T, data []byte, chunkRows int) {
		if chunkRows < 1 || chunkRows > 64 {
			return
		}
		open := func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(data)), nil
		}
		tbl, memErr := ReadCSV(bytes.NewReader(data))

		src, err := ReadCSVChunks(open, chunkRows)
		if err != nil {
			if memErr == nil {
				t.Fatalf("chunked header rejected %q but ReadCSV accepted it: %v", data, err)
			}
			return
		}
		defer src.Close()
		var spool bytes.Buffer
		sw, swErr := NewSpoolWriter(&spool, len(src.Names()))
		var sizes []int
		var vals []float64
		var rows int
		var chunkErr error
		for {
			chunk, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				chunkErr = err
				break
			}
			rows += chunk.Rows()
			sizes = append(sizes, chunk.Rows())
			vals = append(vals, chunk.Raw()...)
			if swErr == nil {
				swErr = sw.Append(chunk)
			}
		}
		if (chunkErr == nil) != (memErr == nil) {
			t.Fatalf("chunked err %v vs in-memory err %v for %q", chunkErr, memErr, data)
		}
		if memErr != nil {
			return
		}
		if n, _ := tbl.Dims(); n != rows {
			t.Fatalf("chunked decoded %d rows, in-memory %d", rows, n)
		}
		if swErr == nil {
			swErr = sw.Flush()
		}
		if swErr != nil {
			t.Fatalf("spooling an accepted CSV: %v", swErr)
		}
		back, err := ReadSpool(func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(spool.Bytes())), nil
		}, chunkRows)
		if err != nil {
			t.Fatalf("reopening the spool: %v", err)
		}
		var k int
		for i := 0; ; i++ {
			chunk, err := back.Next()
			if err == io.EOF {
				if i != len(sizes) {
					t.Fatalf("spool yielded %d chunks, CSV %d", i, len(sizes))
				}
				break
			}
			if err != nil {
				t.Fatalf("spool chunk %d: %v", i, err)
			}
			if i >= len(sizes) || chunk.Rows() != sizes[i] {
				t.Fatalf("spool chunk %d has %d rows, CSV partition %v", i, chunk.Rows(), sizes)
			}
			for _, v := range chunk.Raw() {
				if math.Float64bits(v) != math.Float64bits(vals[k]) {
					t.Fatalf("spool value %d has bits %x, CSV decoded %x", k, math.Float64bits(v), math.Float64bits(vals[k]))
				}
				k++
			}
		}
	})
}

// TestReadCSVRejectsHostileInputs pins the seed-corpus behaviours as
// plain tests so they keep running even when fuzzing is disabled.
func TestReadCSVRejectsHostileInputs(t *testing.T) {
	for name, input := range map[string]string{
		"ragged row":     "a,b\n1,2\n3\n",
		"NaN":            "a,b\nNaN,2\n",
		"+Inf":           "a,b\n+Inf,2\n",
		"empty field":    "a,b\n,2\n",
		"huge exponent":  "a,b\n1e999,2\n",
		"empty input":    "",
		"duplicate name": "a,a\n1,2\n",
		"empty name":     ",\n1,2\n",
		"bad quote":      "a\n\"\n",
		"non-numeric":    "a,b\n1,x\n",
	} {
		if _, err := ReadCSV(strings.NewReader(input)); err == nil {
			t.Errorf("%s: ReadCSV accepted %q", name, input)
		}
	}
}
