// Shard-sketching: the distributed first pass of a streamed assessment.
//
// Byte-identity is the whole design. Chan's pairwise moment merge is
// exact but not bit-associative, so a worker must NOT fold its shard
// into one sketch — it ships one sketch per chunk, and the coordinator
// merges the per-chunk sketches in global chunk order into a fresh
// accumulator. That sequence of operations is, term for term, the same
// float arithmetic the serial accumulate performs (UpdateChunk computes
// a chunk's batch moments and merges them; merging a fresh one-chunk
// sketch into the accumulator merges those very values), so the merged
// sketch is bit-identical to stream.Accumulate(src, 1) over the same
// chunk partition — the property TestMergePartitionBitIdentical in the
// stream package pins directly.
//
// Shards are cut from the disguised copy's float64 spool (see
// dataset.SpoolWriter) at chunk-multiple row offsets. Spool rows have a
// fixed width, so a cut is byte arithmetic, not a parse: a shard is the
// spool header followed by a contiguous run of rows, and a worker reads
// exactly the bits the serial path reads, whatever the column names or
// values look like.

package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"randpriv/internal/dataset"
	"randpriv/internal/stream"
)

// SplitSpoolShards cuts the float64 spool at path into at most shards
// pieces at chunk-multiple row offsets, stores each piece in the CAS as
// a spool of its own (the header replicated), and returns the shard
// digests in file order. Fewer shards come back when the data has fewer
// chunks than requested. A spool with no rows, or whose data is not a
// whole number of rows, is an error — callers fall back to the local
// serial sketch.
func (s *Store) SplitSpoolShards(path string, chunk, shards int) ([]string, error) {
	if chunk < 1 {
		return nil, fmt.Errorf("cluster: chunk size %d, want >= 1", chunk)
	}
	if shards < 1 {
		return nil, fmt.Errorf("cluster: shard count %d, want >= 1", shards)
	}
	f, err := s.fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: open %s: %w", path, err)
	}
	defer f.Close()
	cols, err := dataset.ReadSpoolHeader(f)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", path, err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("cluster: size %s: %w", path, err)
	}
	rowBytes := int64(cols) * 8
	data := size - dataset.SpoolHeaderSize
	if data%rowBytes != 0 {
		return nil, fmt.Errorf("cluster: %s holds %d data bytes, not a whole number of %d-byte rows", path, data, rowBytes)
	}
	rows := data / rowBytes
	if rows == 0 {
		return nil, fmt.Errorf("cluster: %s has no data rows", path)
	}
	chunks := (rows + int64(chunk) - 1) / int64(chunk)
	chunksPerShard := (chunks + int64(shards) - 1) / int64(shards)
	rowsPerShard := chunksPerShard * int64(chunk)

	header := dataset.SpoolHeader(cols)
	var digests []string
	for start := int64(0); start < rows; start += rowsPerShard {
		n := min(rowsPerShard, rows-start)
		off := dataset.SpoolHeaderSize + start*rowBytes
		digest, err := s.putReplayable(path, func(w io.Writer) error {
			if _, err := f.Seek(off, io.SeekStart); err != nil {
				return err
			}
			if _, err := w.Write(header); err != nil {
				return err
			}
			k, err := io.Copy(w, io.LimitReader(f, n*rowBytes))
			if err == nil && k != n*rowBytes {
				err = fmt.Errorf("cluster: shard of %s ends %d bytes early", path, n*rowBytes-k)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		digests = append(digests, digest)
	}
	return digests, nil
}

// Per-chunk sketch container: the result payload of one sketch task.
// Little-endian u32 sketch count, then per sketch a u32 length prefix
// and the stream.Moments binary encoding.
var sketchContainerMagic = [4]byte{'m', 's', 'h', '1'}

// encodeSketchContainer frames per-chunk sketch encodings.
func encodeSketchContainer(sketches [][]byte) []byte {
	size := 8
	for _, b := range sketches {
		size += 4 + len(b)
	}
	out := make([]byte, 0, size)
	out = append(out, sketchContainerMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sketches)))
	for _, b := range sketches {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

// decodeSketchContainer splits a container back into its per-chunk
// sketch encodings without copying.
func decodeSketchContainer(data []byte) ([][]byte, error) {
	if len(data) < 8 || [4]byte(data[:4]) != sketchContainerMagic {
		return nil, fmt.Errorf("cluster: not a sketch container")
	}
	n := binary.LittleEndian.Uint32(data[4:])
	out := make([][]byte, 0, n)
	off := 8
	for i := uint32(0); i < n; i++ {
		if off+4 > len(data) {
			return nil, fmt.Errorf("cluster: truncated sketch container")
		}
		l := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if off+l > len(data) {
			return nil, fmt.Errorf("cluster: truncated sketch container")
		}
		out = append(out, data[off:off+l])
		off += l
	}
	if off != len(data) {
		return nil, fmt.Errorf("cluster: trailing bytes in sketch container")
	}
	return out, nil
}

// SketchShardRunner is the TaskRunner for TaskSketch: scan the shard
// spool in task-sized chunks and return one fresh sketch per chunk.
// Chunks are validated exactly as the serial accumulate validates them —
// a non-finite value fails the task terminally, and the coordinator's
// caller falls back to the serial path, which reproduces the serial
// error verbatim.
func SketchShardRunner(ctx context.Context, st *Store, t *Task) ([]byte, error) {
	if t.ShardDigest == "" || !st.HasBlob(t.ShardDigest) {
		return nil, fmt.Errorf("cluster: sketch task %s: shard blob %s missing", t.ID, t.ShardDigest)
	}
	src, err := dataset.OpenSpool(st.CASPath(t.ShardDigest), t.Chunk)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	var sketches [][]byte
	var rows int64
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := stream.ValidateChunk(chunk, rows); err != nil {
			return nil, err
		}
		r, m := chunk.Dims()
		mo := stream.NewMoments(m)
		mo.UpdateChunk(chunk)
		b, err := mo.MarshalBinary()
		if err != nil {
			return nil, err
		}
		sketches = append(sketches, b)
		rows += int64(r)
	}
	return encodeSketchContainer(sketches), nil
}

// mergeShardContainers Chan-merges the per-chunk sketches of every
// shard, in shard order then chunk order — the global chunk order — into
// a fresh accumulator. The result is bit-identical to the serial
// accumulate over the same partition (see the package comment).
func mergeShardContainers(containers [][]byte) (*stream.Moments, error) {
	var acc *stream.Moments
	dec := stream.NewMoments(0)
	for _, c := range containers {
		parts, err := decodeSketchContainer(c)
		if err != nil {
			return nil, err
		}
		for _, b := range parts {
			if err := dec.UnmarshalBinary(b); err != nil {
				return nil, err
			}
			if acc == nil {
				acc = stream.NewMoments(dec.Dim())
			}
			if err := acc.Merge(dec); err != nil {
				return nil, err
			}
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("cluster: no chunk sketches to merge")
	}
	return acc, nil
}
