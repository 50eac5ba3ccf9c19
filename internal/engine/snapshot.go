package engine

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/sampling"
)

// This file is the snapshot pipeline's public surface and shared reduction
// mechanics: the Snapshot/SnapshotView types, the versioned snapshot cache
// that lets repeat reads skip all work, and the conditional-threshold
// branch precomputation. The cut-and-reduce rebuild that feeds it lives
// in partition.go. The result is bit-identical to
// dataset.SampleBottomK (the equivalence tests enforce it), so everything
// here is pure mechanics — no estimation semantics.

// Snapshot is a consistent cut of the engine reduced to per-item monotone
// outcomes — the streaming equivalent of dataset.SampleBottomK's result.
//
// A snapshot may be shared between concurrent readers (CachedView hands
// the same view to everyone until the engine mutates), and its outcome
// Known/Vals slices are shared: sub-slices of arena arrays, and ONE
// all-false/all-zero pair behind every all-unknown outcome. Treat the
// whole structure as immutable.
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

// SnapshotView is the engine's serving handle on a cut: the version, the
// merged ascending key slice, and the cut's exceptional outcomes — the at
// most r·(k+1)·shards items whose outcome differs from the all-unknown
// default. Every other item's outcome is a pure function of its key and
// the cut's thresholds, {default scheme, Rho = hash.U(key), nothing
// known}, so the view does not store it: consumers that only need what the
// sample reveals (estimator sums under the empty-outcome rule) walk
// Exceptional, and Snapshot() synthesizes the dense list on first call for
// whoever needs every outcome. Views are shared between readers and
// immutable.
type SnapshotView struct {
	// Version is the engine's mutation version as of the cut.
	Version uint64
	// Keys holds every ingested item key in ascending order.
	Keys []uint64
	// Exceptional holds, key-ascending, every outcome with a known entry
	// (or a τ* vector other than the default's); Pos indexes Keys.
	Exceptional []sampling.PlacedOutcome

	// def is the scheme of every outcome not in Exceptional and hash
	// derives its seed. sampled/total are the cut's storage accounting.
	def            sampling.TupleScheme
	hash           sampling.SeedHash
	sampled, total int
	// cell caches the synthesized dense sample; shared by every copy of
	// this view, built at most once.
	cell *viewCell
}

// viewCell is the lazily-synthesized dense sample shared by all copies of
// one SnapshotView.
type viewCell struct {
	once   sync.Once
	sample dataset.CoordinatedSample
}

// Snapshot synthesizes the dense Snapshot for this view: one outcome per
// key in ascending key order, bit-identical to dataset.SampleBottomK. The
// first call per view pays one O(total keys) pass — the default outcome
// at every position (all sharing one read-only all-false/all-zero
// backing), then the exceptional outcomes laid over it; repeat calls (and
// calls on other copies of the same view) return the same cached value.
func (v SnapshotView) Snapshot() Snapshot {
	if v.cell == nil {
		return Snapshot{}
	}
	v.cell.once.Do(func() {
		outcomes := make([]sampling.TupleOutcome, len(v.Keys))
		unknown, zeros := make([]bool, v.def.R()), make([]float64, v.def.R())
		for j, key := range v.Keys {
			outcomes[j] = sampling.TupleOutcome{Scheme: v.def, Rho: v.hash.U(key), Known: unknown, Vals: zeros}
		}
		for _, e := range v.Exceptional {
			outcomes[e.Pos] = e.Outcome
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
// synthesizing the outcomes.
func (v SnapshotView) Index(key uint64) (int, bool) {
	return Snapshot{Keys: v.Keys}.Index(key)
}

// SampledEntries reports the cut's sampled entry count (the dense
// sample's SampledEntries) without synthesizing it.
func (v SnapshotView) SampledEntries() int { return v.sampled }

// TotalEntries reports the cut's active entry count (the dense sample's
// TotalEntries) without synthesizing it.
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
// The rebuild is sketch-proportional: a reduction visits retained sketch
// entries only (see partition.go); the one O(total keys) step is this
// method's dense synthesis. All shards are locked only while their
// retained entries and newly registered keys are copied out; the
// reduction runs lock-free on the copies. The result is published to the
// snapshot cache.
func (e *Engine) Snapshot() Snapshot {
	return e.FreshView().Snapshot()
}

// FreshView returns an exact-cut SnapshotView. "Fresh" means exact, not
// recomputed: when the cut finds the version of the published snapshot,
// nothing moved since it was reduced, and it is returned as is.
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
	// under many concurrent readers, exactly one pays the rebuild and the rest wait for its published result instead of each
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
// CondThreshold/TauFromThreshold chain to a comparison, and makes scheme
// interning a per-instance bit.
type instThresholds struct {
	hasK     bool    // at least k ranks retained; otherwise every item is always included
	boundary float64 // smallest[k-1]: the inclusion boundary rank
	tauIn    float64 // τ* for rank ≤ boundary
	tauOut   float64 // τ* for rank > boundary
}

// selectThresholds is newInstThresholds over the k+1 smallest ranks of es,
// an instance's finite retained entries, found by selection instead of a
// sort: CondThreshold reads only the list's length and its entries k-1 and
// k, so quickselect places exactly those two and leaves the rest of the
// prefix unordered. It reorders es.
func selectThresholds(es []bkEntry, k int) instThresholds {
	if len(es) > k {
		selectRank(es, k)
	}
	if len(es) >= k {
		selectRank(es[:k], k-1)
	}
	smallest := make([]float64, min(len(es), k+1))
	for j := range smallest {
		smallest[j] = es[j].rank
	}
	return newInstThresholds(smallest, k)
}

// newInstThresholds derives an instance's two branches from smallest, its
// (at most k+1) smallest ranks as CondThreshold takes them.
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

// branch is the τ* branch an item of the given rank takes in this
// instance: 1 = tauOut, 0 = tauIn.
func (th instThresholds) branch(rank float64) byte {
	if th.hasK && rank > th.boundary {
		return 1
	}
	return 0
}

// schemeSet is one cut's threshold vector with its TupleSchemes interned
// by branch vector: the (few, repeated) identical τ*-vectors share one
// scheme allocation each, across every rebuild under those thresholds.
type schemeSet struct {
	insts []instThresholds
	m     map[string]sampling.TupleScheme
	// defBranch is the branch vector of an item no sketch retains (every
	// rank +Inf) and def its scheme — the all-unknown default outcome's.
	defBranch string
	def       sampling.TupleScheme
}

func newSchemeSet(insts []instThresholds) *schemeSet {
	def := make([]byte, len(insts))
	for i, th := range insts {
		def[i] = th.branch(math.Inf(1))
	}
	ss := &schemeSet{insts: insts, m: make(map[string]sampling.TupleScheme, 4), defBranch: string(def)}
	ss.def = ss.scheme(def)
	return ss
}

func (ss *schemeSet) scheme(branch []byte) sampling.TupleScheme {
	if s, ok := ss.m[string(branch)]; ok {
		return s
	}
	tau := make([]float64, len(branch))
	for i, b := range branch {
		if b == 1 {
			tau[i] = ss.insts[i].tauOut
		} else {
			tau[i] = ss.insts[i].tauIn
		}
	}
	s, err := sampling.NewTupleScheme(tau)
	if err != nil {
		// Unreachable: TauFromThreshold only yields positive finite values.
		panic(fmt.Sprintf("engine: scheme for branch %v: %v", branch, err))
	}
	ss.m[string(branch)] = s
	return s
}
