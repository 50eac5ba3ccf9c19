package engine

import (
	"math"
	"slices"
	"time"

	"repro/internal/sampling"
)

// This file is the incremental snapshot maintenance layer: each shard
// keeps its own reduced partition keyed by the shard's mutation counter,
// and a rebuild re-reduces only the partitions whose shard changed,
// merging them with the cached remainder. A partition's reduction holds
// only its exceptional outcomes — the items about which the sample reveals
// something — so a rebuild costs what the sketches retain (≤ r·(k+1)
// entries per shard), not what the key registry holds. Because the
// footnote-1 reduction is per-key given the global thresholds, and because
// a shard's mutation counter bumps under its lock on every
// snapshot-visible change, a partition whose counter is unchanged is
// provably identical to what a from-scratch reduction would produce, and
// Snapshot() stays bit-identical to dataset.SampleBottomK.
//
// Invariants (all partition state is guarded by rebuildMu):
//
//  1. partition.muts equals the owning shard's muts at the cut that
//     produced it; equal counters across cuts mean no snapshot-visible
//     change happened in between (the counter bumps under the shard lock).
//  2. Keys are never removed from a shard, so an unchanged key COUNT
//     means an unchanged key SET — the sorted keys slice can be reused
//     and the merged key slice stays valid.
//  3. Outcomes depend on the partition's own retained entries plus the
//     GLOBAL per-instance thresholds. A rebuild recomputes the thresholds
//     by selecting the k-th and (k+1)-th smallest rank among every
//     partition's retained entries; if they moved, every partition is
//     re-reduced (keys/entries reused), otherwise only dirty partitions
//     are.
//  4. An item with no retained entry has the all-unknown default outcome,
//     a pure function of (key, thresholds): every rank is +Inf, so every
//     instance takes the same τ* branch and no entry clears it. A
//     reduction therefore never visits such items, and published views
//     alias only the exceptional outcomes' storage, which a re-reduction
//     never rewrites (it allocates fresh).
//
// No rebuild comparison-sorts a retained list: the thresholds come from
// quickselect, retained entries are key-ordered by a byte radix, and the
// key-ascending per-partition lists are combined by one k-way merge.
type partition struct {
	// muts is the owning shard's mutation counter at the cut.
	muts uint64
	// keys holds the shard's item keys, ascending.
	keys []uint64
	// retained holds, per instance, the shard's sketch heap entries sorted
	// by key — the reduction's merge-walk input and, through their ranks,
	// the global threshold selection's.
	retained [][]bkEntry
	// exc holds the partition's exceptional outcomes, key-ascending: every
	// item whose outcome differs from the all-unknown default. Pos is
	// unset here; the rebuild fills it in its merged copy.
	exc []sampling.PlacedOutcome
	// sampled and active are the partition's contributions to the sample's
	// SampledEntries / TotalEntries bookkeeping.
	sampled int
	active  int
}

// rebuildLocked cuts the engine, re-reduces exactly the stale partitions
// and assembles the merged snapshot. The caller must hold rebuildMu.
func (e *Engine) rebuildLocked() SnapshotView {
	r, k := e.cfg.Instances, e.cfg.K
	ns := len(e.shards)
	if e.parts == nil {
		e.parts = make([]*partition, ns)
	}
	dirty := make([]bool, ns)
	sortKeys := make([]bool, ns)
	keysChanged := false
	anyDirty := false
	var version uint64

	// Consistent cut: all shard locks in index order; dirty shards have
	// their keys and heap entries copied out, clean shards cost one atomic
	// load — their cached partition is provably identical (invariant 1).
	// Every cached partition was reduced by the rebuild that cut it.
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	at := time.Now()
	for s, sh := range e.shards {
		m := sh.muts.Load()
		version += m
		old := e.parts[s]
		if old != nil && old.muts == m {
			continue
		}
		anyDirty = true
		dirty[s] = true
		p := &partition{muts: m, active: sh.activeEntries, retained: make([][]bkEntry, r)}
		if old != nil && len(old.keys) == len(sh.keys) {
			p.keys = old.keys // invariant 2: same count ⇒ same sorted set
		} else {
			p.keys = slices.Clone(sh.keys)
			sortKeys[s] = true
			keysChanged = true
		}
		for i := 0; i < r; i++ {
			p.retained[i] = slices.Clone(sh.heaps[i].es)
		}
		e.parts[s] = p
	}
	for _, sh := range e.shards {
		sh.mu.Unlock()
	}

	// Nothing moved since the published snapshot: the cut just verified the
	// cache is exact, so serve it (FreshView stays an exact read).
	if !anyDirty {
		if c := e.cache.Load(); c != nil && c.version == version {
			return c.view
		}
	}

	// Lock-free: key-order the freshly cut partitions.
	for s, p := range e.parts {
		if !dirty[s] {
			continue
		}
		if sortKeys[s] {
			slices.Sort(p.keys)
		}
		for i := range p.retained {
			e.scratch = sortByKey(p.retained[i], e.scratch)
		}
	}

	// Global thresholds: per instance, gather every partition's finite
	// retained ranks and select the two order statistics CondThreshold
	// reads. The union's k+1 smallest ranks are all retained (each is among
	// its own shard's k+1 smallest), so this equals the monolithic
	// reduction's thresholds. A subnormal weight's rank overflows to +Inf;
	// like KSmallest, the gather drops it as it would an absent item.
	insts := make([]instThresholds, r)
	for i := 0; i < r; i++ {
		g := e.scratch[:0]
		for _, p := range e.parts {
			for _, en := range p.retained[i] {
				if !math.IsInf(en.rank, 1) {
					g = append(g, en)
				}
			}
		}
		insts[i] = selectThresholds(g, k)
		e.scratch = g
	}
	threshChanged := e.thresh == nil || !slices.Equal(insts, e.thresh.insts)
	if threshChanged {
		if e.thresh != nil {
			e.snapCtr.threshRefreshes.Add(1)
		}
		e.thresh = newSchemeSet(insts)
	}

	// Re-reduce stale partitions. A clean partition under moved thresholds
	// reuses its keys and entries.
	for s, p := range e.parts {
		if !dirty[s] && !threshChanged {
			e.snapCtr.partsReused.Add(1)
			continue
		}
		e.reducePartition(p)
		e.shards[s].rebuilds.Add(1)
		e.snapCtr.partsRebuilt.Add(1)
	}

	// The merged key slice survives any weight-only rebuild (invariant 2).
	if e.keys == nil || keysChanged {
		lists := make([][]uint64, len(e.parts))
		for s, p := range e.parts {
			lists[s] = p.keys
		}
		e.keys = mergeByKey(lists, func(key uint64) uint64 { return key })
		e.snapCtr.planRebuilds.Add(1)
	}
	view := e.buildView(version)
	e.snapCtr.rebuilds.Add(1)
	e.publish(&snapshotCacheEntry{version: version, built: at, view: view})
	return view
}

// arenaChunk is how many outcomes' Known/Vals backing one arena
// allocation of reducePartition holds.
const arenaChunk = 32

// reducePartition re-reduces one partition under the engine's current
// thresholds: a merge-walk over its r key-sorted retained lists that
// keeps an outcome only where some entry is known or the τ*-branch vector
// differs from the all-unknown default. Items with no retained entry are
// never visited (invariant 4). Seeds are recomputed from the keys (hash.U
// is the splitmix64 finalizer — cheaper than carrying them through the
// cut).
func (e *Engine) reducePartition(p *partition) {
	th := e.thresh
	r := len(th.insts)
	p.exc, p.sampled = nil, 0
	// cur[i] walks instance i's retained entries in lockstep with the
	// ascending key order the walk produces.
	cur := make([]int, r)
	tuple := make([]float64, r)
	branch := make([]byte, r)
	var known []bool
	var vals []float64
	for {
		key, more := uint64(0), false
		for i, c := range cur {
			if ents := p.retained[i]; c < len(ents) && (!more || ents[c].key < key) {
				key, more = ents[c].key, true
			}
		}
		if !more {
			return
		}
		for i := 0; i < r; i++ {
			rank := math.Inf(1)
			tuple[i] = 0
			if ents, c := p.retained[i], cur[i]; c < len(ents) && ents[c].key == key {
				rank, tuple[i] = ents[c].rank, ents[c].weight
				cur[i]++
			}
			branch[i] = th.insts[i].branch(rank)
		}
		if len(known) < r {
			known, vals = make([]bool, arenaChunk*r), make([]float64, arenaChunk*r)
		}
		o := th.scheme(branch).SampleInto(tuple, e.cfg.Hash.U(key), known[:r:r], vals[:r:r])
		n := o.NumKnown()
		if n == 0 && string(branch) == th.defBranch {
			continue // the default outcome: its arena slot is reused
		}
		known, vals = known[r:], vals[r:]
		p.exc = append(p.exc, sampling.PlacedOutcome{Key: key, Outcome: o})
		p.sampled += n
	}
}

// sortByKey orders es by ascending key with an LSD byte radix: one pass
// counts every byte position's histogram, then one stable, branch-free
// scatter runs per byte position on which the keys differ — a position
// every key agrees on is skipped, so keys spanning a small range take two
// scatters, not eight. Scatters alternate between es and scratch, which is
// grown as needed and returned for reuse; es holds the result.
func sortByKey(es, scratch []bkEntry) []bkEntry {
	n := len(es)
	if n < 2 {
		return scratch
	}
	var counts [8][256]int
	for _, en := range es {
		// Unrolled: a loop over b here costs as much as the scatters.
		k := en.key
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	if cap(scratch) < n {
		scratch = make([]bkEntry, n)
	}
	first := es[0].key
	src, dst := es, scratch[:n]
	for b := range counts {
		c := &counts[b]
		if c[byte(first>>(8*b))] == n {
			continue
		}
		sum := 0
		for d, x := range c {
			c[d], sum = sum, sum+x
		}
		for _, en := range src {
			d := byte(en.key >> (8 * b))
			dst[c[d]] = en
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &es[0] {
		copy(es, src)
	}
	return scratch
}

// mergeHead is one list's unmerged suffix in mergeByKey's min-heap, with
// the suffix's first key cached.
type mergeHead[T any] struct {
	key  uint64
	rest []T
}

// mergeByKey merges lists — each ascending by key, their keys pairwise
// distinct — into one ascending slice with a min-heap of list heads:
// O(n log lists), allocation-proportional to the output.
func mergeByKey[T any](lists [][]T, key func(T) uint64) []T {
	n := 0
	heads := make([]mergeHead[T], 0, len(lists))
	for _, l := range lists {
		n += len(l)
		if len(l) > 0 {
			heads = append(heads, mergeHead[T]{key(l[0]), l})
		}
	}
	out := make([]T, 0, n)
	down := func(i int) {
		for {
			m := i
			if l := 2*i + 1; l < len(heads) && heads[l].key < heads[m].key {
				m = l
			}
			if r := 2*i + 2; r < len(heads) && heads[r].key < heads[m].key {
				m = r
			}
			if m == i {
				return
			}
			heads[i], heads[m] = heads[m], heads[i]
			i = m
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heads) > 0 {
		h := &heads[0]
		out = append(out, h.rest[0])
		if h.rest = h.rest[1:]; len(h.rest) > 0 {
			h.key = key(h.rest[0])
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	return out
}

// buildView merges the partitions' key-ascending exceptional outcomes into
// one list, resolves each one's position in the merged keys and wraps the
// result as an immutable SnapshotView. Nothing here scales with the key
// count beyond the position lookups' logarithm: both lists ascend, so each
// lookup searches only the keys past the previous one, and the dense
// outcome array is synthesized lazily by SnapshotView.Snapshot. The view
// owns its list (partition lists carry no positions), and the outcome
// storage it aliases is never rewritten. The caller must hold rebuildMu.
func (e *Engine) buildView(version uint64) SnapshotView {
	view := SnapshotView{
		Version: version,
		Keys:    e.keys,
		def:     e.thresh.def,
		hash:    e.cfg.Hash,
		cell:    &viewCell{},
	}
	lists := make([][]sampling.PlacedOutcome, len(e.parts))
	for s, p := range e.parts {
		lists[s] = p.exc
		view.sampled += p.sampled
		view.total += p.active
	}
	view.Exceptional = mergeByKey(lists, func(o sampling.PlacedOutcome) uint64 { return o.Key })
	lo := 0
	for i := range view.Exceptional {
		pos, _ := slices.BinarySearch(e.keys[lo:], view.Exceptional[i].Key)
		view.Exceptional[i].Pos = lo + pos
		lo += pos + 1
	}
	return view
}

// resetSnapshotState drops every cached reduction artifact: partitions,
// thresholds, merged keys and the published snapshot. Required when engine
// content changes without per-shard mutation accounting — RestoreState
// parks the dumped version on shard 0, which would otherwise let a
// pre-restore partition match its shard's (untouched) counter and be
// wrongly reused.
func (e *Engine) resetSnapshotState() {
	e.rebuildMu.Lock()
	e.parts, e.thresh, e.keys = nil, nil, nil
	e.cache.Store(nil)
	e.rebuildMu.Unlock()
}
