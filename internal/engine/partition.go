package engine

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"repro/internal/sampling"
)

// This file is the incremental snapshot maintenance layer: each shard
// keeps its own reduced partition keyed by the shard's mutation counter,
// and a rebuild re-reduces only the partitions whose shard changed,
// merging them with the cached remainder. Because the footnote-1
// reduction is per-key given the global thresholds, and because a shard's
// mutation counter bumps under its lock on every snapshot-visible change,
// a partition whose counter is unchanged is provably byte-identical to
// what a from-scratch reduction would produce — so rebuild cost is
// O(touched shards + merge), not O(total keys), while Snapshot() stays
// bit-identical to dataset.SampleBottomK.
//
// Invariants (all partition state is guarded by rebuildMu):
//
//  1. partition.muts equals the owning shard's muts at the cut that
//     produced it; equal counters across cuts mean no snapshot-visible
//     change happened in between (the counter bumps under the shard lock).
//  2. Keys are never removed from a shard, so an unchanged key COUNT
//     means an unchanged key SET — the sorted keys slice can be reused
//     and the merge plan stays valid.
//  3. Outcomes depend on the partition's own (keys, retained entries)
//     plus the GLOBAL per-instance thresholds. A rebuild recomputes the
//     thresholds from every partition's retained ranks; if they moved,
//     every partition's outcomes are re-reduced (keys/entries reused),
//     otherwise only dirty partitions are.
//  4. Published snapshots alias partition arenas, so a re-reduction
//     always writes fresh outcome/arena storage and bumps the partition
//     epoch; an unchanged epoch guarantees unchanged outcome bytes
//     (servers key per-partition derived results by it).
type partition struct {
	// muts is the owning shard's mutation counter at the cut.
	muts uint64
	// epoch identifies this reduction of the partition; it changes iff the
	// outcomes were re-reduced (shard dirty or thresholds moved).
	epoch uint64
	// keys holds the shard's item keys, ascending.
	keys []uint64
	// retained holds, per instance, the shard's sketch heap entries sorted
	// by key — the partition-local merge-walk input.
	retained [][]bkEntry
	// outcomes are the reduced per-item outcomes, parallel to keys, backed
	// by partition-private arenas.
	outcomes []sampling.TupleOutcome
	// ranks holds, per instance, the k+1 smallest retained ranks of THIS
	// partition (sorted ascending). It serves double duty: the global
	// threshold gather works from these short lists instead of every
	// retained entry (the k+1 smallest of a union are each among their own
	// partition's k+1 smallest), and an unchanged ranks cache across a
	// rebuild proves the partition's threshold contribution is unchanged —
	// the threshold-stable skip's evidence.
	ranks [][]float64
	// sampled and active are the partition's contributions to the sample's
	// SampledEntries / TotalEntries bookkeeping.
	sampled int
	active  int
	// reduced records that outcomes were ever produced (a zero-key
	// partition has a non-nil empty outcomes slice either way).
	reduced bool
}

// mergePlan is the cached key-merge of all partitions: the globally sorted
// key slice, the owning shard per merged position, and per shard the
// merged position of each of its items. It depends only on the key sets,
// so it survives weight-only mutations unchanged. src is uint16 (New caps
// Shards at 65536) and pos is int32 (snapshots are bounded far below 2^31
// items in practice).
type mergePlan struct {
	keys []uint64
	src  []uint16
	pos  [][]int32
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
	prev := make([]*partition, ns)
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	at := time.Now()
	for s, sh := range e.shards {
		m := sh.muts.Load()
		version += m
		old := e.parts[s]
		if old != nil && old.reduced && old.muts == m {
			continue
		}
		anyDirty = true
		dirty[s] = true
		prev[s] = old
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
	// When every dirty partition's cache comes out unchanged, no partition's
	// threshold contribution moved (clean partitions are unchanged by
	// invariant 1), so the global thresholds provably equal the cached
	// e.insts — the whole re-gather is skipped. This is the common case for
	// registry-only churn: new (instance, key) activity whose rank never
	// makes the shard's bottom-(k+1) heap still flips a mask bit (a visible
	// mutation, so a rebuild runs) without moving any retained rank.
	var ranks []float64
	ranksStable := e.insts != nil
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
		if old := prev[s]; old == nil || !old.reduced || !rankCachesEqual(old.ranks, p.ranks) {
			ranksStable = false
		}
	}

	// Global thresholds from every partition's rank cache. The k+1 smallest
	// ranks of the union are each among their own partition's k+1 smallest,
	// so gathering the short cached lists reproduces the monolithic
	// reduction's thresholds exactly in O(shards·k) instead of O(retained).
	var insts []instThresholds
	threshChanged := false
	if ranksStable {
		insts = e.insts
		e.snapCtr.threshSkips.Add(1)
	} else {
		insts = make([]instThresholds, r)
		for i := 0; i < r; i++ {
			ranks = ranks[:0]
			for _, p := range e.parts {
				ranks = append(ranks, p.ranks[i]...)
			}
			insts[i] = newInstThresholds(sampling.KSmallest(ranks, k+1), k)
		}
		threshChanged = !slices.Equal(insts, e.insts)
		if threshChanged && e.insts != nil {
			e.snapCtr.threshRefreshes.Add(1)
		}
	}

	// Re-reduce stale partitions in ascending shard order, so epoch
	// assignment is deterministic for a given mutation history. A clean
	// partition under moved thresholds reuses its keys and entries but
	// gets fresh outcome arenas (invariant 4).
	for s, p := range e.parts {
		if p.reduced && !dirty[s] && !threshChanged {
			e.snapCtr.partsReused.Add(1)
			continue
		}
		e.reducePartition(p, insts)
		e.epochSeq++
		p.epoch = e.epochSeq
		e.shards[s].rebuilds.Add(1)
		e.snapCtr.partsRebuilt.Add(1)
	}

	// The merge plan survives any weight-only rebuild (invariant 2).
	if e.plan == nil || keysChanged {
		e.plan = buildMergePlan(e.parts)
		e.snapCtr.planRebuilds.Add(1)
	}
	e.insts = insts
	view := e.buildView(version)
	e.snapCtr.rebuilds.Add(1)
	e.publish(&snapshotCacheEntry{version: version, built: at, view: view})
	return view
}

// rankCachesEqual reports whether two per-instance rank caches hold
// identical values (ranks are finite positives, so == is exact).
func rankCachesEqual(a, b [][]float64) bool {
	return slices.EqualFunc(a, b, slices.Equal)
}

// reducePartition re-reduces one partition into fresh outcome arenas,
// fanning out across reduceWorkers chunks of the partition's key range.
func (e *Engine) reducePartition(p *partition, insts []instThresholds) {
	r := len(insts)
	n := len(p.keys)
	p.outcomes = make([]sampling.TupleOutcome, n)
	p.sampled = 0
	p.reduced = true
	if n == 0 {
		return
	}
	knownArena := make([]bool, n*r)
	valsArena := make([]float64, n*r)
	workers := reduceWorkers(n * r)
	chunk := (n + workers - 1) / workers
	sampled := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			sampled[w] = reduceRange(e.cfg.Hash, insts, p.keys, p.retained, p.outcomes, knownArena, valsArena, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, s := range sampled {
		p.sampled += s
	}
}

// buildMergePlan merges the partitions' sorted, disjoint key slices with a
// small min-heap of stream heads: O(n log shards), allocation-proportional
// to the output.
func buildMergePlan(parts []*partition) *mergePlan {
	n := 0
	for _, p := range parts {
		n += len(p.keys)
	}
	pl := &mergePlan{
		keys: make([]uint64, 0, n),
		src:  make([]uint16, 0, n),
		pos:  make([][]int32, len(parts)),
	}
	cur := make([]int, len(parts))
	type head struct {
		key   uint64
		shard uint16
	}
	heads := make([]head, 0, len(parts))
	for s, p := range parts {
		pl.pos[s] = make([]int32, len(p.keys))
		if len(p.keys) > 0 {
			heads = append(heads, head{key: p.keys[0], shard: uint16(s)})
		}
	}
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
		h := heads[0]
		s := int(h.shard)
		pl.pos[s][cur[s]] = int32(len(pl.keys))
		pl.keys = append(pl.keys, h.key)
		pl.src = append(pl.src, h.shard)
		cur[s]++
		if c := cur[s]; c < len(parts[s].keys) {
			heads[0].key = parts[s].keys[c]
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	return pl
}

// buildView wraps the current partitions and plan as an immutable
// SnapshotView. No O(total keys) work happens here — the merged outcome
// array is materialized lazily by SnapshotView.Snapshot, and everything
// the view references (plan slices, partition outcomes) is never mutated
// after publication (re-reductions write fresh storage). The caller must
// hold rebuildMu.
func (e *Engine) buildView(version uint64) SnapshotView {
	pl := e.plan
	parts := make([]SnapshotPart, len(e.parts))
	view := SnapshotView{
		Version: version,
		Keys:    pl.keys,
		Parts:   parts,
		src:     pl.src,
		cell:    &viewCell{},
	}
	for s, p := range e.parts {
		view.sampled += p.sampled
		view.total += p.active
		parts[s] = SnapshotPart{Epoch: p.epoch, Index: pl.pos[s], Outcomes: p.outcomes}
	}
	return view
}

// resetSnapshotState drops every cached reduction artifact: partitions,
// thresholds, merge plan and the published snapshot. Required when engine
// content changes without per-shard mutation accounting — RestoreState
// parks the dumped version on shard 0, which would otherwise let a
// pre-restore partition match its shard's (untouched) counter and be
// wrongly reused.
func (e *Engine) resetSnapshotState() {
	e.rebuildMu.Lock()
	e.parts, e.insts, e.plan = nil, nil, nil
	e.cache.Store(nil)
	e.rebuildMu.Unlock()
}
