package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sampling"
)

// maxProbeRun bounds the longest probe run TestRegistryIndex accepts. At
// load 1/2 the longest run of 2^14 keys is 15–35 cells for most seeds
// (52 was the worst of 1,200 random seeds); a hash the key patterns
// defeat drives it towards the key count.
const maxProbeRun = 64

// check holds r's index to its records: a power-of-two index at most
// half full that holds exactly the registered slots, each key resolving
// to its own slot. It returns the longest probe run: the most cells a
// lookup of a registered key visits.
func (r *registry) check() (longest int, err error) {
	n, size := r.len(), len(r.idx)
	if size < minIndex || size&(size-1) != 0 {
		return 0, fmt.Errorf("index size %d is not a power of two ≥ %d", size, minIndex)
	}
	if 2*n > size {
		return 0, fmt.Errorf("%d keys in an index of %d cells: over half full", n, size)
	}
	used := 0
	for _, s := range r.idx {
		if s != 0 {
			used++
		}
	}
	if used != n {
		return 0, fmt.Errorf("index holds %d slots, registry %d keys", used, n)
	}
	for slot := range n {
		key := r.key(slot)
		at, s := r.probe(key)
		if s != uint32(slot+1) {
			return 0, fmt.Errorf("key %#x at slot %d resolves to slot+1 = %d", key, slot, s)
		}
		run := (at-int(probeHash(key, r.seed)))&(size-1) + 1
		longest = max(longest, run)
	}
	return longest, nil
}

// CheckRegistries holds every shard's registry to its invariants (see
// registry.check) and reports the first violation.
func (e *Engine) CheckRegistries() error {
	for s, sh := range e.shards {
		sh.mu.Lock()
		_, err := sh.check()
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// TestRegistryIndex registers key patterns that defeat a weak probe hash
// — sequential ids, ids shifted into the high word, keys equal in their
// low 32 bits, and keys that all route to one shard — one at a time
// (growing the index by regrow) and after presize, and checks after
// every growth that each key resolves to its slot, and at the end that
// the longest probe run stays short.
func TestRegistryIndex(t *testing.T) {
	const n = 1 << 14
	e, err := New(Config{Instances: 3, K: 4, Shards: 16, Hash: sampling.NewSeedHash(1)})
	if err != nil {
		t.Fatal(err)
	}
	var oneShard []uint64
	for id := uint64(0); len(oneShard) < n; id++ {
		if e.shardOf(id) == 0 {
			oneShard = append(oneShard, id)
		}
	}
	patterns := []struct {
		name string
		key  func(j uint64) uint64
	}{
		{"sequential", func(j uint64) uint64 { return j }},
		{"j<<32", func(j uint64) uint64 { return j << 32 }},
		{"j<<48", func(j uint64) uint64 { return j << 48 }},
		{"equal low bits", func(j uint64) uint64 { return j<<32 | 0x9e3779b9 }},
		{"one shard", func(j uint64) uint64 { return oneShard[j] }},
	}
	for c, p := range patterns {
		key := p.key
		t.Run(p.name, func(t *testing.T) {
			for _, presized := range []bool{false, true} {
				// A fixed seed keeps the run lengths reproducible.
				r := newRegistry(3)
				r.seed = 0x5eed + uint64(c)
				if presized {
					r.presize(n)
				}
				size := len(r.idx)
				for j := range uint64(n) {
					if got := r.slot(key(j)); got != uint32(j) {
						t.Fatalf("presized %v: key %d registered at slot %d", presized, j, got)
					}
					if 2*(j+1) > uint64(len(r.idx)) {
						t.Fatalf("presized %v: %d keys in an index of %d cells: over half full", presized, j+1, len(r.idx))
					}
					if len(r.idx) != size {
						if presized {
							t.Fatalf("a presized index grew at key %d", j)
						}
						size = len(r.idx)
						if _, err := r.check(); err != nil {
							t.Fatalf("after growing to %d cells: %v", size, err)
						}
					}
				}
				for j := range uint64(n) {
					if got := r.slot(key(j)); got != uint32(j) {
						t.Fatalf("presized %v: key %d resolves to slot %d", presized, j, got)
					}
				}
				longest, err := r.check()
				if err != nil {
					t.Fatalf("presized %v: %v", presized, err)
				}
				if longest > maxProbeRun {
					t.Fatalf("presized %v: longest probe run %d cells, bound %d", presized, longest, maxProbeRun)
				}
				t.Logf("presized %v: %d keys, %d cells, longest probe run %d", presized, n, len(r.idx), longest)
			}
		})
	}
}

// TestRegistryBytesPerKey bounds the heap a registered key costs: 2^18
// keys folded into both instances of an r = 2, k = 256, 16-shard engine.
// The records take 24 B a key, the index 8–16 B and the heaps under 1 B.
// The input batch stays live across both readings, so its bytes cancel
// out; the second GC frees the batch scratch IngestBatch pooled.
func TestRegistryBytesPerKey(t *testing.T) {
	const keys = 1 << 18
	batch := make([]Update, 0, 2*keys)
	for k := range uint64(keys) {
		w := 1 + float64(k%97)
		batch = append(batch, Update{Instance: 0, Key: k, Weight: w}, Update{Instance: 1, Key: k, Weight: 2 * w})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := New(Config{Instances: 2, K: 256, Shards: 16, Hash: sampling.NewSeedHash(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(batch)
	if got := e.Stats().Keys; got != keys {
		t.Fatalf("%d keys registered, want %d", got, keys)
	}
	perKey := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / keys
	t.Logf("%.1f B of heap per registered key", perKey)
	if perKey > 48 {
		t.Fatalf("%.1f B of heap per registered key, bound 48", perKey)
	}
}
