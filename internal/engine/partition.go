package engine

import (
	"cmp"
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
//     from every partition's retained ranks; if they moved, every
//     partition is re-reduced (keys/entries reused), otherwise only dirty
//     partitions are.
//  4. An item with no retained entry has the all-unknown default outcome,
//     a pure function of (key, thresholds): every rank is +Inf, so every
//     instance takes the same τ* branch and no entry clears it. A
//     reduction therefore never visits such items, and published views
//     alias only the exceptional outcomes' storage, which a re-reduction
//     never rewrites (it allocates fresh).
type partition struct {
	// muts is the owning shard's mutation counter at the cut.
	muts uint64
	// keys holds the shard's item keys, ascending.
	keys []uint64
	// retained holds, per instance, the shard's sketch heap entries sorted
	// by key — the reduction's merge-walk input.
	retained [][]bkEntry
	// exc holds the partition's exceptional outcomes, key-ascending: every
	// item whose outcome differs from the all-unknown default. Pos is
	// unset here; the rebuild fills it in its merged copy.
	exc []sampling.PlacedOutcome
	// ranks holds, per instance, the k+1 smallest retained ranks of THIS
	// partition (sorted ascending): the global threshold gather works from
	// these short lists instead of every retained entry (the k+1 smallest
	// of a union are each among their own partition's k+1 smallest).
	ranks [][]float64
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
		if old != nil && len(old.keys) == len(sh.items) {
			p.keys = old.keys // invariant 2: same count ⇒ same sorted set
		} else {
			p.keys = make([]uint64, 0, len(sh.items))
			for key := range sh.items {
				p.keys = append(p.keys, key)
			}
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

	// Lock-free: sort the freshly cut partitions.
	for s, p := range e.parts {
		if !dirty[s] {
			continue
		}
		if sortKeys[s] {
			slices.Sort(p.keys)
		}
		for i := range p.retained {
			slices.SortFunc(p.retained[i], func(a, b bkEntry) int { return cmp.Compare(a.key, b.key) })
		}
	}

	// Refresh each dirty partition's per-instance k+1 smallest rank cache.
	var ranks []float64
	for s, p := range e.parts {
		if !dirty[s] {
			continue
		}
		p.ranks = make([][]float64, r)
		for i := 0; i < r; i++ {
			ranks = ranks[:0]
			for _, en := range p.retained[i] {
				ranks = append(ranks, en.rank)
			}
			p.ranks[i] = sampling.KSmallest(ranks, k+1)
		}
	}

	// Global thresholds from every partition's rank cache. The k+1 smallest
	// ranks of the union are each among their own partition's k+1 smallest,
	// so gathering the short cached lists reproduces the monolithic
	// reduction's thresholds exactly in O(shards·k) instead of O(retained).
	insts := make([]instThresholds, r)
	for i := 0; i < r; i++ {
		ranks = ranks[:0]
		for _, p := range e.parts {
			ranks = append(ranks, p.ranks[i]...)
		}
		insts[i] = newInstThresholds(sampling.KSmallest(ranks, k+1), k)
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
		e.keys = mergeKeys(e.parts)
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

// mergeKeys merges the partitions' sorted, disjoint key slices with a
// small min-heap of stream heads: O(n log shards), allocation-proportional
// to the output.
func mergeKeys(parts []*partition) []uint64 {
	n := 0
	for _, p := range parts {
		n += len(p.keys)
	}
	keys := make([]uint64, 0, n)
	// heads holds each non-empty partition's unmerged key suffix, min-heap
	// ordered by first key.
	heads := make([][]uint64, 0, len(parts))
	for _, p := range parts {
		if len(p.keys) > 0 {
			heads = append(heads, p.keys)
		}
	}
	down := func(i int) {
		for {
			m := i
			if l := 2*i + 1; l < len(heads) && heads[l][0] < heads[m][0] {
				m = l
			}
			if r := 2*i + 2; r < len(heads) && heads[r][0] < heads[m][0] {
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
		keys = append(keys, heads[0][0])
		if heads[0] = heads[0][1:]; len(heads[0]) == 0 {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	return keys
}

// buildView merges the partitions' exceptional outcomes into one
// key-ascending list, resolves each one's position in the merged keys and
// wraps the result as an immutable SnapshotView. Nothing here scales with
// the key count beyond the position lookups' logarithm: the dense outcome
// array is synthesized lazily by SnapshotView.Snapshot. The view owns its
// list (partition lists carry no positions), and the outcome storage it
// aliases is never rewritten. The caller must hold rebuildMu.
func (e *Engine) buildView(version uint64) SnapshotView {
	view := SnapshotView{
		Version: version,
		Keys:    e.keys,
		def:     e.thresh.def,
		hash:    e.cfg.Hash,
		cell:    &viewCell{},
	}
	n := 0
	for _, p := range e.parts {
		n += len(p.exc)
		view.sampled += p.sampled
		view.total += p.active
	}
	view.Exceptional = make([]sampling.PlacedOutcome, 0, n)
	for _, p := range e.parts {
		view.Exceptional = append(view.Exceptional, p.exc...)
	}
	slices.SortFunc(view.Exceptional, func(a, b sampling.PlacedOutcome) int { return cmp.Compare(a.Key, b.Key) })
	for i := range view.Exceptional {
		view.Exceptional[i].Pos, _ = slices.BinarySearch(e.keys, view.Exceptional[i].Key)
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
