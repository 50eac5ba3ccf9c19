package engine

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/sampling"
)

// FuzzRebuildMatchesBatch holds the rebuild — threshold selection, the
// drop of unknown τ-out entries, the key radix and the merge-walk — to the
// batch reduction on small weight matrices. raw is read as little-endian
// float64 weights, row-major over 1–3 instances and at most 24 keys; a
// weight is folded to |x|, and a non-finite one to 0.
//
// The target covers the rebuild, not heap admission: an input on which a
// shard heap evicted or refused an entry is skipped. Admission keeps a
// shard's k+1 smallest ranks only, which loses an entry the batch
// reveals in two cases: an exact rank tie at the k-th rank with more than
// k+1 tied keys on one shard, and a near-overflow weight whose clamped τ*
// reveals it above the boundary.
func FuzzRebuildMatchesBatch(f *testing.F) {
	hash := sampling.NewSeedHash(2)
	rows := func(w ...[]float64) []byte {
		var raw []byte
		for _, row := range w {
			for _, x := range row {
				raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
			}
		}
		return raw
	}
	// Weight u·2^x ranks exactly 2^-x: ties at the k-th rank.
	tie := func(x int, keys ...int) []float64 {
		row := make([]float64, len(keys))
		for j, key := range keys {
			row[j] = hash.U(uint64(key)) * math.Ldexp(1, x)
		}
		return row
	}
	const tiny = 5e-324
	// The args are k−1, shards−1, instances−1 and the rows.
	f.Add(uint8(0), uint8(1), uint8(0), rows([]float64{1e308, 1e308, 1e308}))
	f.Add(uint8(3), uint8(3), uint8(1), rows(
		[]float64{2, tiny, 3, tiny, tiny, 1e308, tiny, tiny},
		[]float64{tiny, tiny, 1, tiny, 4, 7, 2, tiny},
	))
	keys := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	f.Add(uint8(3), uint8(3), uint8(1), rows(tie(10, keys...), tie(10, keys...)))
	f.Add(uint8(2), uint8(3), uint8(1), rows(
		append(tie(12, 0, 1), append(tie(10, 2, 3, 4, 5), tie(8, 6, 7)...)...),
		append(tie(10, 0, 1, 2), append(tie(11, 3), tie(9, 4, 5, 6, 7)...)...),
	))

	f.Fuzz(func(t *testing.T, k, shards, instances uint8, raw []byte) {
		r := 1 + int(instances)%3
		n := min(len(raw)/8/r, 24)
		w := make([][]float64, r)
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				x := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(i*n+j):])))
				if !math.IsInf(x, 1) && !math.IsNaN(x) {
					w[i][j] = x
				}
			}
		}
		// The matrix ends before the first key no instance weighs: the
		// engine never sees such a key, the batch reduction would.
		for j := 0; j < n; j++ {
			weighed := false
			for i := range w {
				weighed = weighed || w[i][j] > 0
			}
			if !weighed {
				n = j
			}
		}
		if n == 0 {
			return
		}
		for i := range w {
			w[i] = w[i][:n]
		}
		kk, s := 1+int(k)%6, 1+int(shards)%5
		e := rebuildEngine(t, w, kk, s, hash)
		for i := range w {
			fed := 0
			for _, x := range w[i] {
				if x > 0 {
					fed++
				}
			}
			if heapEntries(e, i) < fed {
				t.Skip("a shard heap evicted an entry")
			}
		}
		requireMatchesMatrix(t, e, w, kk, hash)
		requireBatchThresholds(t, e)
		requireKnownOrInBranch(t, e)
	})
}
