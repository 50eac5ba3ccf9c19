package engine

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sampling"
)

// This file is the engine's durable-state boundary: SketchState and
// DumpState serialize a consistent cut of the sketch store into a State,
// RestoreState rebuilds an empty engine's snapshot from one
// bit-identically, and MergeState folds one into
// a live engine under the lossless sketch-merge semantics (shared seeds ⇒
// merge = per-key max-union). internal/store encodes States to disk as
// checkpoints and export artifacts; the engine itself stays free of any
// I/O or encoding concerns.

// seedProbeKeys are the fixed keys whose seeds fingerprint a Config.Hash.
// The salt is private to sampling.SeedHash, so state compatibility is
// checked by comparing the seeds these keys hash to: two engines agreeing
// on both (post-finalizer 64-bit mixes of distant inputs) share the salt
// for every practical purpose.
var seedProbeKeys = [2]uint64{0, 0x9e3779b97f4a7c15}

// StateEntry is one retained sketch entry: an item key with its folded
// (max) weight. The rank is not stored — it is a pure function of the
// seed (itself a function of the key) and the weight.
type StateEntry struct {
	Key    uint64
	Weight float64
}

// State is a self-contained, deterministic serialization of an engine's
// sketch contents: the key registry with its per-instance activity masks
// plus, per instance, every retained entry whose rank is at most the
// instance's (k+1)-th smallest retained rank (ties included, so boundary
// branches match). Those entries are all a snapshot reads: it depends on
// each instance's k+1 smallest ranks and on the entries among them. They
// also suffice for a merge, because under coordinated ranks the union's
// bottom-(k+1) lies inside the union of every source's own bottom-(k+1)
// (the source holding a key's largest weight ranks it exactly as the union
// does). Equal engine contents produce byte-for-byte equal States (all
// slices are key-sorted), so encoded states double as comparison
// artifacts, and a State is independent of the shard layout it was cut
// from.
type State struct {
	// Instances and K echo the configuration; both must match the target
	// engine exactly on restore/merge (heap caps and τ semantics depend on
	// them).
	Instances int
	K         int
	// Shards records the source layout (informational).
	Shards int
	// Version and Ingests are the source engine's counters at the cut.
	// RestoreState preserves both; MergeState folds Ingests in and lets
	// the mutation version advance naturally.
	Version uint64
	Ingests uint64
	// SeedCheck fingerprints the seed hash (seeds of seedProbeKeys); a
	// mismatch on restore/merge means a different salt, i.e. sketches that
	// must not be combined.
	SeedCheck [2]float64
	// Keys holds every ingested item key, ascending (empty when the cut
	// leaves the registry out).
	Keys []uint64
	// Masks holds the per-key instance-activity bitmasks, maskWords words
	// per key, parallel to Keys.
	Masks []uint64
	// Entries holds each instance's global bottom-(k+1) (key, weight)
	// pairs, key-ascending.
	Entries [][]StateEntry
}

// maskWordsFor mirrors Engine.maskWords for a given instance count.
func maskWordsFor(instances int) int { return (instances + 63) / 64 }

// seedCheck computes the hash fingerprint stored in State.SeedCheck.
func seedCheck(h sampling.SeedHash) [2]float64 {
	return [2]float64{h.U(seedProbeKeys[0]), h.U(seedProbeKeys[1])}
}

// DumpState is SketchState(0): the cut with its registry, as checkpoints
// and a plain /v1/export carry it.
func (e *Engine) DumpState() *State {
	st, _ := e.SketchState(0)
	return st
}

// SketchState serializes the engine's contents as one consistent cut: the
// cut barrier's write side and then all shard locks are held while the
// counters, every shard's retained entries and — unless the cut's registry
// size equals knownReg — the flat keys and masks are copied out; the
// registry is radix-sorted and each instance cut to its bottom-(k+1)
// outside the cut's locks. Holding the barrier means no journaled batch is
// half-applied at the cut, which is what lets a checkpoint prune the WAL
// it rotated away from (see Journal). The result shares no memory with
// the engine.
//
// reg is the registry size at the cut: keys plus active (instance, key)
// pairs. While the engine lives it only grows (keys are never removed and
// mask bits only go 0→1), so a caller that saw size reg from this same
// engine already holds an identical registry. knownReg = 0 always ships
// it (an empty registry ships as nothing anyway).
func (e *Engine) SketchState(knownReg uint64) (st *State, reg uint64) {
	r, mw := e.cfg.Instances, e.maskWords
	st = &State{
		Instances: r,
		K:         e.cfg.K,
		Shards:    e.cfg.Shards,
		SeedCheck: seedCheck(e.cfg.Hash),
		Entries:   make([][]StateEntry, r),
	}
	heaps := make([][]bkEntry, r)
	e.cutMu.Lock()
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	st.Ingests = e.ingests.Load()
	keys := 0
	for _, sh := range e.shards {
		st.Version += sh.muts.Load()
		keys += len(sh.keys)
		reg += uint64(len(sh.keys) + sh.activeEntries)
	}
	var unsorted, unsortedMasks []uint64
	if reg != knownReg {
		unsorted = make([]uint64, 0, keys)
		unsortedMasks = make([]uint64, 0, keys*mw)
		for _, sh := range e.shards {
			unsorted = append(unsorted, sh.keys...)
			unsortedMasks = append(unsortedMasks, sh.masks...)
		}
	}
	e.gatherLocked(heaps)
	for _, sh := range e.shards {
		sh.mu.Unlock()
	}
	e.cutMu.Unlock()

	// Sort keys ascending, permuting the masks alongside; registration
	// order must not leak into the serialized form. Keys are unique, so
	// the order is total.
	st.Keys, st.Masks = make([]uint64, len(unsorted)), make([]uint64, len(unsortedMasks))
	for to, from := range sortRegistry(unsorted, st.Keys) {
		copy(st.Masks[to*mw:(to+1)*mw], unsortedMasks[int(from)*mw:(int(from)+1)*mw])
	}
	for i, es := range heaps {
		st.Entries[i] = bottomEntries(es, e.cfg.K+1)
	}
	return st, reg
}

// gatherLocked refills dst[i] with every shard's retained entries of
// instance i, reusing dst[i]'s storage. The caller holds every shard lock.
func (e *Engine) gatherLocked(dst [][]bkEntry) {
	for i := range dst {
		n := 0
		for _, sh := range e.shards {
			n += len(sh.heaps[i].es)
		}
		es := slices.Grow(dst[i][:0], n)
		for _, sh := range e.shards {
			es = append(es, sh.heaps[i].es...)
		}
		dst[i] = es
	}
}

// bottomEntries returns, key-ascending, the entries of es whose rank is at
// most the n-th smallest rank (every entry when there are at most n). It
// selects that rank in expected linear time and key-orders the survivors
// by radix instead of sorting, and reorders es.
func bottomEntries(es []bkEntry, n int) []StateEntry {
	bound := math.Inf(1)
	if len(es) > n {
		selectRank(es, n-1)
		bound = es[n-1].rank
	}
	kept := es[:0]
	for _, en := range es {
		if en.rank <= bound {
			kept = append(kept, en)
		}
	}
	sortByKey(kept, nil)
	out := make([]StateEntry, len(kept))
	for j, en := range kept {
		out[j] = StateEntry{Key: en.key, Weight: en.weight}
	}
	return out
}

// sortRegistry writes keys in ascending order to out (len(out) =
// len(keys)) and returns the permutation it applied: out[to] is the key
// that was passed in at keys[perm[to]]. It is sortByKey's LSD byte radix —
// one histogram pass, then a scatter per byte position on which the keys
// differ — over (key, index) pairs held as parallel arrays, so keys and out
// serve as the two key buffers (keys is overwritten) and only the uint32
// index buffers are allocated: the cut's peak memory is what the indirect
// comparison sort's was. (2^32 registered keys would take ~250 GB.)
func sortRegistry(keys, out []uint64) []uint32 {
	n := len(keys)
	perm := make([]uint32, 2*n)
	src, dst := perm[:n], perm[n:]
	for i := range src {
		src[i] = uint32(i)
	}
	if n < 2 {
		copy(out, keys)
		return src
	}
	var counts [8][256]int
	for _, k := range keys {
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	first := keys[0]
	ks, kd := keys, out
	for b := range counts {
		c := &counts[b]
		if c[byte(first>>(8*b))] == n {
			continue
		}
		sum := 0
		for d, x := range c {
			c[d], sum = sum, sum+x
		}
		for i, k := range ks {
			d := byte(k >> (8 * b))
			kd[c[d]], dst[c[d]] = k, src[i]
			c[d]++
		}
		ks, kd, src, dst = kd, ks, dst, src
	}
	if &ks[0] != &out[0] {
		copy(out, ks)
	}
	return src
}

// selectRank reorders es so that es[n] holds the entry a rank sort would
// put there, no entry before it has a larger rank and none after it a
// smaller one (Hoare quickselect; equal ranks are safe).
func selectRank(es []bkEntry, n int) {
	lo, hi := 0, len(es)-1
	for lo < hi {
		pivot := es[lo+(hi-lo)/2].rank
		i, j := lo, hi
		for i <= j {
			for es[i].rank < pivot {
				i++
			}
			for es[j].rank > pivot {
				j--
			}
			if i <= j {
				es[i], es[j] = es[j], es[i]
				i++
				j--
			}
		}
		switch {
		case n <= j:
			hi = j
		case n >= i:
			lo = i
		default:
			return
		}
	}
}

// validateState checks that st can be combined with the engine at all.
func (e *Engine) validateState(st *State) error {
	if st.Instances != e.cfg.Instances {
		return fmt.Errorf("engine: state has %d instances, engine %d", st.Instances, e.cfg.Instances)
	}
	if st.K != e.cfg.K {
		return fmt.Errorf("engine: state has k=%d, engine k=%d", st.K, e.cfg.K)
	}
	if sc := seedCheck(e.cfg.Hash); sc != st.SeedCheck {
		return fmt.Errorf("engine: state seed fingerprint %v does not match engine %v (different salt)", st.SeedCheck, sc)
	}
	mw := maskWordsFor(st.Instances)
	if len(st.Masks) != len(st.Keys)*mw {
		return fmt.Errorf("engine: state has %d mask words for %d keys (want %d)", len(st.Masks), len(st.Keys), len(st.Keys)*mw)
	}
	if len(st.Entries) != st.Instances {
		return fmt.Errorf("engine: state has %d entry lists for %d instances", len(st.Entries), st.Instances)
	}
	for i, ents := range st.Entries {
		for _, en := range ents {
			if en.Weight <= 0 || math.IsNaN(en.Weight) || math.IsInf(en.Weight, 0) {
				return fmt.Errorf("engine: state instance %d key %d weight %g must be finite and positive", i, en.Key, en.Weight)
			}
		}
	}
	return nil
}

// RestoreState rebuilds an empty engine from a dumped state. The engine
// must be freshly constructed (no prior ingests) and agree with the state
// on Instances, K and the seed hash; the shard count may differ. After a
// restore, Snapshot() is bit-identical to the source engine's at the cut,
// and the Ingests and Version counters continue from the dumped values —
// a clean-shutdown checkpoint round-trips byte-for-byte through
// DumpState/RestoreState.
//
// The shard heaps then hold only the global bottom-(k+1), not every entry
// the source's heaps held. That is sound: weights fold by max and keys are
// never removed, so an instance's (k+1)-th smallest rank never rises. A
// dropped entry ranks above it for good, and so does any later update of
// its key at a lower weight; one at a higher weight carries the true
// maximum. Later ingests therefore serve and dump what the source's would.
// Only Version differs: it stays monotone, but while the sparse heaps
// refill it counts updates the source's fuller heaps would have refused.
func (e *Engine) RestoreState(st *State) error {
	if s := e.Stats(); s.Keys != 0 || s.Ingests != 0 {
		return fmt.Errorf("engine: restore into non-empty engine (%d keys, %d ingests)", s.Keys, s.Ingests)
	}
	if err := e.validateState(st); err != nil {
		return err
	}
	e.applyState(st, false)
	e.ingests.Store(st.Ingests)
	// Park the whole dumped version on shard 0 so Version() continues from
	// the cut; applyState deliberately skipped per-mutation bumps. That
	// parking bypasses per-shard mutation accounting, so drop every
	// snapshot artifact cut before the restore.
	e.shards[0].muts.Store(st.Version)
	e.resetSnapshotState()
	e.notifyMutation()
	return nil
}

// MergeState folds a dumped state into a live engine: activity masks OR
// in (an instance that ever saw a key positive stays counted exactly
// once) and retained entries fold under max-weight semantics — the
// lossless coordinated-sketch merge, usable for import of portable sketch
// artifacts from other processes sharing the salt. The state's Ingests
// add to the engine's traffic counter and the mutation version advances
// per actual state change, so cached snapshots invalidate as usual.
func (e *Engine) MergeState(st *State) error {
	if err := e.validateState(st); err != nil {
		return err
	}
	e.applyState(st, true)
	e.ingests.Add(st.Ingests)
	// A merge may be a pure no-op (every mask bit and entry dominated),
	// but signaling spuriously is harmless: consumers re-read Version and
	// see nothing moved.
	e.notifyMutation()
	return nil
}

// applyState is the shared restore/merge walk. It buckets st.Keys and
// each instance's st.Entries by shard, stably, and takes each shard's
// lock once: an empty registry is presized for the shard's keys, the keys
// register and OR in their masks, then the entries fold instance by
// instance. Each shard thus sees the sequence a walk of the whole state
// in order would give it, so slot order, heaps and mutation counts are
// that walk's. With countMuts, a shard's snapshot-visible changes bump its
// mutation counter under its lock (merge); without, counters are left for
// the caller (restore). An entry registers its own key: it ORs its
// instance bit into the key's registry mask, registering the key if
// needed, so a State whose entries name keys absent from Keys (a compact
// SketchState, or a crafted artifact) still leaves every retained entry's
// key in the registry — never an outcome served at another key's
// position.
func (e *Engine) applyState(st *State, countMuts bool) {
	mw := maskWordsFor(st.Instances)
	keyOrder, keyBounds := e.byShard(len(st.Keys), func(j int) uint64 { return st.Keys[j] })
	entOrder, entBounds := make([][]uint32, len(st.Entries)), make([][]int, len(st.Entries))
	for i, ents := range st.Entries {
		entOrder[i], entBounds[i] = e.byShard(len(ents), func(j int) uint64 { return ents[j].Key })
	}
	for s, sh := range e.shards {
		keys := keyOrder[keyBounds[s]:keyBounds[s+1]]
		sh.mu.Lock()
		if len(sh.keys) == 0 && len(keys) > 0 {
			sh.presize(e, len(keys))
		}
		muts := uint64(0)
		for _, j := range keys {
			slot := sh.slot(e, st.Keys[j])
			for w := 0; w < mw; w++ {
				muts += uint64(sh.activate(e, slot, w, st.Masks[int(j)*mw+w]))
			}
		}
		for i, ents := range st.Entries {
			word, bit := i/64, uint64(1)<<(i%64)
			for _, j := range entOrder[i][entBounds[i][s]:entBounds[i][s+1]] {
				en := ents[j]
				slot := sh.slot(e, en.Key)
				muts += uint64(sh.activate(e, slot, word, bit))
				rank := sampling.Rank(sampling.RankPriority, e.cfg.Hash.U(en.Key), en.Weight)
				if sh.heaps[i].update(slot, en.Key, en.Weight, rank) {
					muts++
				}
			}
		}
		if countMuts {
			sh.muts.Add(muts)
		}
		sh.mu.Unlock()
	}
}

// byShard groups the n items whose keys key(j) gives by shard, stably:
// order lists item indices shard by shard, ascending within a shard, and
// shard s's run is order[bounds[s]:bounds[s+1]]. Each key is mixed once;
// shard ids fit a uint16 (New caps the count at 65536).
func (e *Engine) byShard(n int, key func(j int) uint64) (order []uint32, bounds []int) {
	sid := make([]uint16, n)
	bounds = make([]int, len(e.shards)+1)
	for j := range sid {
		s := e.shardOf(key(j))
		sid[j] = uint16(s)
		bounds[s+1]++
	}
	for s := range e.shards {
		bounds[s+1] += bounds[s]
	}
	next := slices.Clone(bounds)
	order = make([]uint32, n)
	for j, s := range sid {
		order[next[s]] = uint32(j)
		next[s]++
	}
	return order, bounds
}
