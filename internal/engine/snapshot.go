package engine

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/sampling"
)

// This file is the snapshot pipeline's public surface and shared reduction
// mechanics: the Snapshot/SnapshotView types, the versioned snapshot cache
// that lets repeat reads skip all work, the conditional-threshold branch
// precomputation, and the per-range merge-walk reduction. The incremental
// per-shard partition maintenance that feeds it lives in partition.go. The
// result is bit-identical to dataset.SampleBottomK (the equivalence tests
// enforce it), so everything here is pure mechanics — no estimation
// semantics.

// Snapshot is a consistent cut of the engine reduced to per-item monotone
// outcomes — the streaming equivalent of dataset.SampleBottomK's result.
//
// A snapshot may be shared between concurrent readers (CachedView hands
// the same view to everyone until the engine mutates), and its
// outcome Known/Vals slices are sub-slices of shared arena arrays: treat
// the whole structure as immutable.
type Snapshot struct {
	// Keys holds every ingested item key in ascending order, parallel to
	// Sample.Outcomes.
	Keys []uint64
	// Sample carries the outcomes and the storage bookkeeping; every
	// outcome estimator (L*, U*, HT, Jaccard) applies to it unmodified.
	Sample dataset.CoordinatedSample
}

// Index returns the position of key in Keys (and hence in
// Sample.Outcomes), or false when the key was never ingested. Keys is
// sorted ascending, so this is a binary search — the query layer resolves
// per-query item selections against one shared snapshot with it.
func (s Snapshot) Index(key uint64) (int, bool) {
	i := sort.Search(len(s.Keys), func(i int) bool { return s.Keys[i] >= key })
	if i < len(s.Keys) && s.Keys[i] == key {
		return i, true
	}
	return 0, false
}

// SnapshotPart describes one shard's partition inside a SnapshotView.
type SnapshotPart struct {
	// Epoch identifies the partition's reduction. It changes exactly when
	// the partition's outcome bytes change (shard mutated, or the global
	// thresholds moved), so derived per-item results cached under an epoch
	// can be reused bit-identically while it holds.
	Epoch uint64
	// Index maps the partition's t-th item (ascending key order within the
	// shard) to its position in Keys (and in the materialized
	// Snapshot().Sample.Outcomes).
	Index []int32
	// Outcomes holds the partition's reduced outcomes, parallel to Index.
	// Consumers that aggregate per item (the server's estimate caches) can
	// work from these directly and skip materializing the merged snapshot.
	Outcomes []sampling.TupleOutcome
}

// SnapshotView is the engine's serving handle on a cut: the version, the
// merged ascending key slice, and the per-shard reduced partitions. The
// merged outcome array — the only O(total keys) artifact left in the
// incremental pipeline — is NOT built up front: Snapshot() materializes
// it on first call and caches it in the view's shared cell, so view-only
// consumers (the server fast path) never pay for it. Views are shared
// between readers and immutable.
type SnapshotView struct {
	// Version is the engine's mutation version as of the cut.
	Version uint64
	// Keys holds every ingested item key in ascending order.
	Keys []uint64
	// Parts has one entry per shard, in shard order. The Index slices form
	// a partition of [0, len(Keys)).
	Parts []SnapshotPart

	// src is the merge plan's per-position owning shard — the gather order
	// for materialization. sampled/total are the cut's storage accounting.
	src            []uint16
	sampled, total int
	// cell caches the materialized merged sample; shared by every copy of
	// this view, built at most once.
	cell *viewCell
}

// viewCell is the lazily-materialized merged sample shared by all copies
// of one SnapshotView.
type viewCell struct {
	once   sync.Once
	sample dataset.CoordinatedSample
}

// Snapshot materializes the merged Snapshot for this view: outcomes in
// ascending key order, bit-identical to dataset.SampleBottomK. The first
// call per view pays one O(total keys) gather; repeat calls (and calls on
// other copies of the same view) return the same cached value.
func (v SnapshotView) Snapshot() Snapshot {
	if v.cell == nil {
		return Snapshot{}
	}
	v.cell.once.Do(func() {
		outcomes := make([]sampling.TupleOutcome, len(v.Keys))
		cur := make([]int, len(v.Parts))
		for j, s := range v.src {
			outcomes[j] = v.Parts[s].Outcomes[cur[s]]
			cur[s]++
		}
		v.cell.sample = dataset.CoordinatedSample{
			Outcomes:       outcomes,
			SampledEntries: v.sampled,
			TotalEntries:   v.total,
		}
	})
	return Snapshot{Keys: v.Keys, Sample: v.cell.sample}
}

// Index is Snapshot.Index against the view's merged key order, without
// materializing the outcomes.
func (v SnapshotView) Index(key uint64) (int, bool) {
	return Snapshot{Keys: v.Keys}.Index(key)
}

// SampledEntries reports the cut's retained sketch entry count (the
// materialized sample's SampledEntries) without materializing it.
func (v SnapshotView) SampledEntries() int { return v.sampled }

// TotalEntries reports the cut's active entry count (the materialized
// sample's TotalEntries) without materializing it.
func (v SnapshotView) TotalEntries() int { return v.total }

// snapshotCacheEntry is one published reduction: the view, the version it
// was cut at, and when the cut was taken (for bounded-staleness serving).
type snapshotCacheEntry struct {
	version uint64
	built   time.Time
	view    SnapshotView
}

// Snapshot reduces the live sketches to per-item outcomes via the shared
// conditional-threshold reduction (footnote 1). For any arrival order and
// any max-dominated duplicates, the result is bit-identical to
// dataset.SampleBottomK on the aggregated weight matrix — provided the
// item keys are the matrix's column indices 0..n-1, since the batch
// sampler seeds item k with hash.U(uint64(k)). Sparse or string-hashed
// keys yield the same reduction over their own seed set.
//
// The rebuild is incremental: shards whose mutation counter is unchanged
// since the last snapshot keep their reduced partition verbatim, so the
// cost is proportional to the touched shards plus the final merge — not
// the total key count (see partition.go). All shards are locked only
// while dirty sketch contents are copied out; the reduction runs
// lock-free on the copies. The result is published to the snapshot cache.
func (e *Engine) Snapshot() Snapshot {
	return e.FreshView().Snapshot()
}

// FreshView returns an exact-cut SnapshotView. "Fresh" means exact, not
// recomputed: the cut itself verifies which cached partitions (and
// possibly the whole published snapshot) are still byte-identical to a
// from-scratch reduction, and reuses them.
func (e *Engine) FreshView() SnapshotView {
	e.rebuildMu.Lock()
	defer e.rebuildMu.Unlock()
	return e.rebuildLocked()
}

// CachedView returns the engine's current view, reusing the last reduced
// one bit-identically when no mutation intervened: the fast path is one
// atomic pointer load plus a lock-free version check — zero shard locks,
// zero reduction work, zero allocations.
//
// maxStale > 0 relaxes exactness under sustained write load: a cached
// view whose cut is at most maxStale old is served even if the version
// moved on, bounding how often writers force a re-reduction. maxStale = 0
// always serves an exact cut.
//
// The view's Version identifies the cut it was taken at (Engine.Version
// at cut time); callers memoizing derived results key them by it — never
// by a separate Version() call, which a racing writer could move past the
// cut. The view is shared — treat it as immutable.
func (e *Engine) CachedView(maxStale time.Duration) SnapshotView {
	if v, ok := e.cachedHit(maxStale); ok {
		return v
	}
	// Single-flight the rebuild: when one mutation invalidates the cache
	// under many concurrent readers, exactly one pays the (incremental)
	// rebuild and the rest wait for its published result instead of each
	// re-cutting the shards (which would also serialize writers N times
	// over).
	e.rebuildMu.Lock()
	defer e.rebuildMu.Unlock()
	if v, ok := e.cachedHit(maxStale); ok {
		return v
	}
	return e.rebuildLocked()
}

// cachedHit returns the cached view when it is current (or within the
// staleness bound).
func (e *Engine) cachedHit(maxStale time.Duration) (SnapshotView, bool) {
	c := e.cache.Load()
	if c == nil {
		return SnapshotView{}, false
	}
	if c.version == e.Version() {
		return c.view, true
	}
	if maxStale > 0 && time.Since(c.built) <= maxStale {
		return c.view, true
	}
	return SnapshotView{}, false
}

// publish installs the entry unless a newer version is already cached.
// Concurrent builders may finish out of order; keeping the highest
// version means the cache only moves forward.
func (e *Engine) publish(en *snapshotCacheEntry) {
	for {
		old := e.cache.Load()
		if old != nil && old.version >= en.version {
			return
		}
		if e.cache.CompareAndSwap(old, en) {
			return
		}
	}
}

// instThresholds is one instance's precomputed conditional-threshold
// branch: per item the PPS threshold τ* takes one of exactly two values,
// chosen by whether the item's rank is among the instance's k smallest
// (rank ≤ boundary). Precomputing both collapses the per-item
// KSmallest/CondThreshold/TauFromThreshold chain to a comparison, and
// makes scheme interning a per-instance bit.
type instThresholds struct {
	hasK     bool    // at least k ranks retained; otherwise every item is always included
	boundary float64 // smallest[k-1]: the inclusion boundary rank
	tauIn    float64 // τ* for rank ≤ boundary
	tauOut   float64 // τ* for rank > boundary
}

func newInstThresholds(smallest []float64, k int) instThresholds {
	// The two branch values come from the real reduction chain: rank 0 is
	// always ≤ smallest[k-1] (ranks are positive) and +Inf never is, so
	// these two probes exhaust CondThreshold's per-item behavior and
	// bit-identity with the batch sampler holds by construction.
	th := instThresholds{
		tauIn:  sampling.TauFromThreshold(sampling.CondThreshold(smallest, k, 0)),
		tauOut: sampling.TauFromThreshold(sampling.CondThreshold(smallest, k, math.Inf(1))),
	}
	if len(smallest) >= k {
		th.hasK, th.boundary = true, smallest[k-1]
	}
	return th
}

// reduceParallelMin is the partition size (items × instances) below which
// the reduction stays single-threaded — goroutine fan-out costs more than
// it saves on small cuts.
const reduceParallelMin = 1 << 13

// reduceWorkers picks the reduction fan-out for a partition of cells =
// items × instances. A variable so tests can force multi-chunk reductions
// (and their chunk-boundary cursor seeding) on single-CPU machines.
var reduceWorkers = func(cells int) int {
	w := runtime.GOMAXPROCS(0)
	if cells < reduceParallelMin || w < 2 {
		return 1
	}
	return w
}

// reduceRange fills outcomes[lo:hi] from the key-sorted retained entries
// and returns the number of sampled entries in the range. Workers touch
// disjoint outcome and arena ranges, so no synchronization is needed
// beyond the final join. Seeds are recomputed from the keys (hash.U is
// the splitmix64 finalizer — cheaper than carrying a second sorted array
// through the cut).
func reduceRange(hash sampling.SeedHash, insts []instThresholds, keys []uint64, retained [][]bkEntry, outcomes []sampling.TupleOutcome, knownArena []bool, valsArena []float64, lo, hi int) int {
	r := len(insts)
	// cur[i] walks instance i's key-sorted retained entries in lockstep
	// with the ascending key loop — the merge walk replacing per-item map
	// lookups.
	cur := make([]int, r)
	for i := range cur {
		ents := retained[i]
		first := keys[lo]
		cur[i] = sort.Search(len(ents), func(x int) bool { return ents[x].key >= first })
	}
	tuple := make([]float64, r)
	// branch[i] records which τ* branch item j takes in instance i; it is
	// the intern key, so the (few, repeated) identical τ*-vectors share
	// one TupleScheme allocation each.
	branch := make([]byte, r)
	schemes := make(map[string]sampling.TupleScheme, 4)
	sampled := 0
	for j := lo; j < hi; j++ {
		key := keys[j]
		for i := 0; i < r; i++ {
			ents := retained[i]
			c := cur[i]
			for c < len(ents) && ents[c].key < key {
				c++
			}
			rank := math.Inf(1)
			tuple[i] = 0
			if c < len(ents) && ents[c].key == key {
				rank = ents[c].rank
				tuple[i] = ents[c].weight
				c++
			}
			cur[i] = c
			if insts[i].hasK && rank > insts[i].boundary {
				branch[i] = 1
			} else {
				branch[i] = 0
			}
		}
		scheme, ok := schemes[string(branch)]
		if !ok {
			tau := make([]float64, r)
			for i := range tau {
				if branch[i] == 1 {
					tau[i] = insts[i].tauOut
				} else {
					tau[i] = insts[i].tauIn
				}
			}
			var err error
			scheme, err = sampling.NewTupleScheme(tau)
			if err != nil {
				// Unreachable: ranks are positive, so every tau is
				// positive and finite.
				panic(fmt.Sprintf("engine: item %d scheme: %v", key, err))
			}
			schemes[string(branch)] = scheme
		}
		base := j * r
		o := scheme.SampleInto(tuple, hash.U(key), knownArena[base:base+r:base+r], valsArena[base:base+r:base+r])
		outcomes[j] = o
		sampled += o.NumKnown()
	}
	return sampled
}
