package stream

import (
	"math"
	"math/rand"
	"testing"

	"randpriv/internal/mat"
)

// sameBits reports whether two sketches hold the same dimension, count
// and IEEE-754 bits in every mean and co-moment — the bit-exact
// comparison the properties rest on.
func sameBits(a, b *Moments) bool {
	if a.m != b.m || a.n != b.n {
		return false
	}
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return same(a.mean, b.mean) && same(a.m2, b.m2)
}

// randomPartition splits n rows at random points into chunk sizes ≥ 1,
// biased to include single-row chunks.
func randomPartition(rng *rand.Rand, n int) []int {
	var sizes []int
	for left := n; left > 0; {
		var s int
		switch rng.Intn(4) {
		case 0:
			s = 1 // force single-row chunks into every run
		default:
			s = 1 + rng.Intn(left)
		}
		if s > left {
			s = left
		}
		sizes = append(sizes, s)
		left -= s
	}
	return sizes
}

// TestMergePartitionBitIdentical is the property behind Accumulate's
// identical result at any worker count: for a FIXED chunk partition,
// sketching each chunk independently and Chan-merging the per-chunk
// sketches in chunk order — however the chunks are grouped into
// contiguous shards, including empty shards and single-row chunks — is
// bit-identical to the sequential accumulate over the same chunk
// sequence. Fuzzed over random data shapes, random split points and
// random shard groupings.
func TestMergePartitionBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20250808))
	for iter := 0; iter < 120; iter++ {
		n := 1 + rng.Intn(200)
		m := 1 + rng.Intn(12)
		data := mat.Zeros(n, m)
		raw := data.Raw()
		for i := range raw {
			// Mixed scales so the last bits actually carry information.
			raw[i] = (rng.NormFloat64() + 3) * float64(1+rng.Intn(1000))
		}
		sizes := randomPartition(rng, n)

		// Reference: the sequential accumulate (what stream.Accumulate
		// with workers=1 does for this partition).
		seq := NewMoments(m)
		row := 0
		var chunks []*mat.Dense
		for _, s := range sizes {
			c := data.Slice(row, row+s, 0, m)
			chunks = append(chunks, c)
			seq.UpdateChunk(c)
			row += s
		}

		// Merge-style: fresh per-chunk sketches, arbitrarily grouped
		// into contiguous shards (some empty), merged strictly in global
		// chunk order.
		var perChunk []*Moments
		for _, c := range chunks {
			mo := NewMoments(m)
			mo.UpdateChunk(c)
			perChunk = append(perChunk, mo)
		}
		acc := NewMoments(m)
		i := 0
		for i < len(perChunk) {
			if rng.Intn(3) == 0 {
				// Empty shard: contributes an empty sketch, which must be
				// a bit-exact no-op in the merge.
				if err := acc.Merge(NewMoments(m)); err != nil {
					t.Fatalf("merge empty sketch: %v", err)
				}
				continue
			}
			shardLen := 1 + rng.Intn(len(perChunk)-i)
			for _, mo := range perChunk[i : i+shardLen] {
				if err := acc.Merge(mo); err != nil {
					t.Fatalf("merge chunk sketch: %v", err)
				}
			}
			i += shardLen
		}

		if !sameBits(seq, acc) {
			t.Fatalf("iter %d (n=%d m=%d chunks=%d): merged per-chunk sketches differ from sequential accumulate",
				iter, n, m, len(sizes))
		}
	}
}
