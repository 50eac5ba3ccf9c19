package engine

import (
	"math"
	"slices"
	"time"

	"repro/internal/sampling"
)

// This file is the snapshot rebuild: one consistent cut of every shard,
// then one reduction over the whole engine. The footnote-1 reduction is
// per item given the global per-instance thresholds, and an item with no
// retained entry has a known default outcome, so a rebuild gathers only
// the retained sketch entries (≤ shards·(k+1) per instance), sorts and
// walks only those that are in-branch or known (about k per instance),
// never the key registry, and Snapshot() stays bit-identical to
// dataset.SampleBottomK.
//
// Invariants (all rebuild state is guarded by rebuildMu):
//
//  1. A shard's key registry is append-only, so the keys registered since
//     the last cut are exactly those in slots [seen[s], sh.len()). The
//     merged key slice is extended by merging those in, into a fresh
//     slice: published views alias the old one, which is never rewritten.
//  2. Outcomes depend on an item's retained entries plus the GLOBAL
//     per-instance thresholds, which a rebuild selects as the k-th and
//     (k+1)-th smallest rank among every shard's retained entries.
//  3. An item with no retained entry has the all-unknown default outcome,
//     a pure function of (key, thresholds): every rank is +Inf, so every
//     instance takes the same τ* branch and no entry clears it. The
//     reduction therefore never visits such items, and published views
//     hold only the exceptional outcomes, in storage a later rebuild never
//     rewrites (it allocates fresh).
//  4. A retained entry that takes its instance's τ-out branch and is
//     unknown there is indistinguishable from absence: an absent entry's
//     +Inf rank takes the τ-out branch too, and is unknown. The rebuild
//     drops such entries before the radix sort by SampleInto's own test
//     (u·τ-out ≤ weight). A rank-only test (rank ≤ boundary) is not the
//     same: at near-overflow weights the rank and the weight test round
//     differently, and τ* is clamped.
//
// No rebuild comparison-sorts a retained list: the thresholds come from
// quickselect and retained entries are key-ordered by a byte radix.

// rebuildLocked cuts the engine, reduces the cut and publishes the view.
// The caller must hold rebuildMu.
func (e *Engine) rebuildLocked() SnapshotView {
	r, k := e.cfg.Instances, e.cfg.K

	// Consistent cut: all shard locks in index order. Counters bump under
	// the shard locks and only grow, so an unchanged version sum means an
	// unchanged engine and the published view is exact (FreshView stays an
	// exact read).
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	at := time.Now()
	var version uint64
	fresh, total := 0, 0
	for s, sh := range e.shards {
		version += sh.muts.Load()
		fresh += sh.len() - e.seen[s]
		total += sh.activeEntries
	}
	if c := e.cache.Load(); c != nil && c.version == version {
		for _, sh := range e.shards {
			sh.mu.Unlock()
		}
		return c.view
	}
	e.gatherLocked(e.retained)
	added := make([]uint64, 0, fresh)
	for s, sh := range e.shards {
		n := sh.len()
		for slot := e.seen[s]; slot < n; slot++ {
			added = append(added, sh.key(slot)) // invariant 1
		}
		e.seen[s] = n
	}
	for _, sh := range e.shards {
		sh.mu.Unlock()
	}

	// Lock-free from here: the retained buffers belong to the engine and no
	// view aliases them, so the rebuild compacts them in place. Global
	// thresholds: per instance, gather the finite retained ranks and select
	// the two order statistics CondThreshold reads. The union's k+1
	// smallest ranks are all retained (each is among its own shard's k+1
	// smallest), so this equals the monolithic reduction's thresholds. A
	// subnormal weight's rank overflows to +Inf; like KSmallest, the gather
	// drops it as it would an absent item. Each list then keeps only its
	// in-branch or known entries (invariant 4) and is key-ordered for the
	// merge-walk.
	insts := make([]instThresholds, r)
	for i, es := range e.retained {
		g := e.scratch[:0]
		for _, en := range es {
			if !math.IsInf(en.rank, 1) {
				g = append(g, en)
			}
		}
		th := selectThresholds(g, k)
		insts[i] = th
		kept := es[:0]
		for _, en := range es {
			// SampleInto's test at the τ-out branch, operands in its order.
			if th.branch(en.rank) == 0 || (en.weight >= e.cfg.Hash.U(en.key)*th.tauOut && en.weight > 0) {
				kept = append(kept, en)
			}
		}
		e.retained[i] = kept
		e.scratch = sortByKey(kept, g)
	}
	if e.thresh == nil || !slices.Equal(insts, e.thresh.insts) {
		if e.thresh != nil {
			e.snapCtr.threshRefreshes.Add(1)
		}
		e.thresh = newSchemeSet(insts)
	}

	if e.keys == nil || len(added) > 0 {
		slices.Sort(added)
		e.keys = mergeKeys(e.keys, added)
		e.snapCtr.planRebuilds.Add(1)
	}
	view := SnapshotView{
		Version: version,
		Keys:    e.keys,
		def:     e.thresh.def,
		hash:    e.cfg.Hash,
		total:   total,
		cell:    &viewCell{},
	}
	view.Exceptional, view.sampled = e.reduce()
	lo := 0
	for i := range view.Exceptional {
		pos, _ := slices.BinarySearch(e.keys[lo:], view.Exceptional[i].Key)
		view.Exceptional[i].Pos = lo + pos
		lo += pos + 1
	}
	e.snapCtr.rebuilds.Add(1)
	e.snapCtr.partsRebuilt.Add(uint64(len(e.shards)))
	e.publish(&snapshotCacheEntry{version: version, built: at, view: view})
	return view
}

// mergeKeys merges the ascending new keys into the ascending old ones,
// disjoint from them, as a fresh slice: each new key binary-searches its
// place and the old run before it is block-copied. When old is empty the
// new keys are returned as they are — the cut gathered them into a slice
// of their own.
func mergeKeys(old, added []uint64) []uint64 {
	if len(old) == 0 {
		return added
	}
	out := make([]uint64, 0, len(old)+len(added))
	for _, key := range added {
		j, _ := slices.BinarySearch(old, key)
		out = append(append(out, old[:j]...), key)
		old = old[j:]
	}
	return append(out, old...)
}

// arenaChunk is how many outcomes' Known/Vals backing one arena
// allocation of reduce holds.
const arenaChunk = 32

// reduce reduces the cut under the engine's current thresholds: a
// merge-walk over the r key-sorted retained lists that keeps an outcome
// only where some entry is known or the τ*-branch vector differs from the
// all-unknown default. It returns those exceptional outcomes, key-ascending
// with Pos unset, and their known-entry count. Items with no retained entry
// are never visited (invariant 3). Seeds are recomputed from the keys
// (hash.U is the splitmix64 finalizer — cheaper than carrying them through
// the cut).
func (e *Engine) reduce() (exc []sampling.PlacedOutcome, sampled int) {
	th := e.thresh
	r := len(th.insts)
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
			if ents := e.retained[i]; c < len(ents) && (!more || ents[c].key < key) {
				key, more = ents[c].key, true
			}
		}
		if !more {
			return exc, sampled
		}
		for i := 0; i < r; i++ {
			rank := math.Inf(1)
			tuple[i] = 0
			if ents, c := e.retained[i], cur[i]; c < len(ents) && ents[c].key == key {
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
		exc = append(exc, sampling.PlacedOutcome{Key: key, Outcome: o})
		sampled += n
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

// resetSnapshotState drops every cached reduction artifact: thresholds,
// merged keys, the per-shard registry marks and the published snapshot.
// Required when engine content changes without per-shard mutation
// accounting — RestoreState parks the dumped version on shard 0, so a view
// cached before the restore could otherwise match the restored version.
func (e *Engine) resetSnapshotState() {
	e.rebuildMu.Lock()
	e.thresh, e.keys = nil, nil
	clear(e.seen)
	e.cache.Store(nil)
	e.rebuildMu.Unlock()
}
