package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/sampling"
)

// Config parameterizes an Engine.
type Config struct {
	// Instances is the number of coordinated instances r. Required.
	Instances int
	// K is the per-instance bottom-k sketch size. Required.
	K int
	// Shards is the number of lock-striped shards. Default 16.
	Shards int
	// Hash derives the shared per-item seeds; pass the same hasher to
	// dataset.SampleBottomK to reproduce a batch sample exactly.
	Hash sampling.SeedHash
}

// Update is one weighted observation for batched ingest.
type Update struct {
	// Instance is the target instance in [0, Instances).
	Instance int `json:"instance"`
	// Key identifies the item (sampling.StringKey maps names here).
	Key uint64 `json:"key"`
	// Weight folds in under max semantics; zero is a no-op.
	Weight float64 `json:"weight"`
}

// Journal durably records accepted updates — the engine's write-ahead
// hook. Append is called ONCE PER INGEST CALL with the whole validated,
// non-zero-weight batch (shard-ordered), under the read side of the
// engine's cut barrier, immediately before the batch is folded shard by
// shard. That placement is what makes checkpoints sound: a cut
// (SketchState) takes the barrier's write side, so it waits for every batch
// journaled before it to finish applying, and a store that rotates its WAL
// before cutting can prune the closed tail without losing an update. A
// failed Append applies nothing of the batch. Replay may observe batches
// in a different interleaving than they were applied in: the sketch fold
// is commutative and idempotent under max semantics (the batch-equivalence
// tests prove order-independence), so any replay order reproduces the
// same state. Implementations must be safe for concurrent use, must not
// retain the batch slice past the call, and must never call back into the
// engine.
type Journal interface {
	Append(batch []Update) error
}

// ErrJournal marks an ingest error as a failed Journal.Append — the
// server's fault (disk full, store closed), not the request's: callers
// errors.Is it to tell a retryable internal failure from a rejected
// update.
var ErrJournal = errors.New("journal")

// Engine is a sharded streaming store of coordinated bottom-k sketches.
// Methods are safe for concurrent use.
type Engine struct {
	cfg       Config
	maskWords int
	shards    []*shard
	ingests   atomic.Uint64
	// journal, when set, receives every accepted update batch before it is
	// applied (write-ahead). Set via SetJournal before concurrent use.
	journal Journal
	// cutMu is the cut barrier: every write holds its read side from
	// journal append to the last shard fold, and cut holds its write side,
	// so a cut never observes a journaled batch half-applied. Writers share
	// it, so they still fold in parallel under the shard locks.
	cutMu sync.RWMutex
	// cache is the last reduced snapshot with the version it was cut at;
	// CachedView serves it lock-free while the version holds, and
	// rebuildMu single-flights cache-miss rebuilds.
	cache     atomic.Pointer[snapshotCacheEntry]
	rebuildMu sync.Mutex
	// Snapshot rebuild state (see partition.go), all guarded by rebuildMu:
	// the last rebuild's global thresholds (with their interned schemes),
	// its merged key slice and, per shard, how many registered keys that
	// slice holds; then the reusable buffers no view aliases — the cut's
	// retained entries per instance, and the threshold gather / radix
	// scratch.
	thresh   *schemeSet
	keys     []uint64
	seen     []int
	retained [][]bkEntry
	scratch  []bkEntry
	// snapCtr observes the rebuild path; counters are atomics
	// only so Stats can read them without rebuildMu.
	snapCtr snapshotCounters
	// notifyCh is the coalesced mutation signal behind MutationSignal: a
	// cap-1 channel poked (non-blocking) after every operation that bumped
	// the version, so a consumer wakes at least once per mutation burst.
	notifyCh chan struct{}
	// batch pools IngestBatch's shard-bucketing scratch (counts + reordered
	// updates) so steady-state batches allocate nothing.
	batch sync.Pool
}

// New validates the configuration and returns an empty engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Instances < 1 {
		return nil, fmt.Errorf("engine: instances %d must be positive", cfg.Instances)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("engine: bottom-k size %d must be positive", cfg.K)
	}
	if cfg.K >= math.MaxInt32 {
		// A heap holds k+1 entries and indexes them by int32.
		return nil, fmt.Errorf("engine: bottom-k size %d exceeds %d", cfg.K, math.MaxInt32-1)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("engine: shard count %d must be nonnegative", cfg.Shards)
	}
	if cfg.Shards > 65536 {
		// Every shard preallocates r heaps and every cut takes every shard
		// lock: a count this large is a mistyped flag, not a configuration.
		return nil, fmt.Errorf("engine: shard count %d exceeds 65536", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 16
	}
	e := &Engine{
		cfg:       cfg,
		maskWords: (cfg.Instances + 63) / 64,
		shards:    make([]*shard, cfg.Shards),
		seen:      make([]int, cfg.Shards),
		retained:  make([][]bkEntry, cfg.Instances),
		notifyCh:  make(chan struct{}, 1),
	}
	for s := range e.shards {
		sh := &shard{registry: newRegistry(cfg.Instances), heaps: make([]bkHeap, cfg.Instances)}
		for i := range sh.heaps {
			// k+1 entries per instance: Snapshot needs the k+1 globally
			// smallest ranks, and the union of shard heaps covers them.
			sh.heaps[i] = bkHeap{cap: cfg.K + 1, inst: i, reg: &sh.registry}
		}
		e.shards[s] = sh
	}
	return e, nil
}

// Config returns the engine's (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetJournal attaches the write-ahead journal. It must be called before
// the engine sees concurrent traffic (internal/store attaches it after
// recovery, before the server starts); a nil journal disables journaling.
func (e *Engine) SetJournal(j Journal) { e.journal = j }

// Ingest folds one observation into the sketches under max-weight
// semantics. Negative, NaN or infinite weights are rejected; zero weights
// are accepted no-ops (a zero entry is never sampled) that leave the
// engine version unchanged, so cached snapshots stay valid.
func (e *Engine) Ingest(instance int, key uint64, weight float64) error {
	if err := e.check(instance, weight); err != nil {
		return err
	}
	if weight == 0 {
		return nil
	}
	one := [1]Update{{Instance: instance, Key: key, Weight: weight}}
	sh := e.shards[e.shardOf(key)]
	return e.write(one[:], func() uint64 { return sh.fold(e, one[:]) })
}

// write is the engine's one write step: journal the validated,
// non-zero-weight batch as one record, then fold it (fold walks the
// shards, each under its own lock, and returns the snapshot-visible
// mutations), all under the cut barrier's read side — so a cut, which
// takes the write side, sees every journaled batch fully applied or not
// journaled yet (see Journal). A journal error applies nothing.
func (e *Engine) write(batch []Update, fold func() uint64) error {
	e.cutMu.RLock()
	defer e.cutMu.RUnlock()
	if e.journal != nil {
		if err := e.journal.Append(batch); err != nil {
			return fmt.Errorf("engine: %w: %w", ErrJournal, err)
		}
	}
	if fold() > 0 {
		e.notifyMutation()
	}
	return nil
}

// batchScratch is a bucketed batch over reusable storage (see bucket):
// per-shard segment ends, and the shard-ordered copy of the batch.
type batchScratch struct {
	counts []int
	buf    []Update
}

// IngestBatch folds a batch of observations, taking each shard lock at
// most once. The batch is validated up front, journaled as ONE record
// under the cut barrier's read side, and then applied shard by shard:
// atomic per shard against snapshots, all-or-nothing against a journal
// failure and against checkpoint cuts. Bucketing (see bucket) runs over
// pooled scratch, so the steady state allocates nothing.
func (e *Engine) IngestBatch(updates []Update) error {
	sc, _ := e.batch.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{}
	}
	defer e.batch.Put(sc)
	if err := e.bucket(updates, sc); err != nil || len(sc.buf) == 0 {
		return err
	}
	buf, counts := sc.buf, sc.counts
	return e.write(buf, func() (muts uint64) {
		lo := 0
		for s, hi := range counts {
			if hi > lo {
				muts += e.shards[s].fold(e, buf[lo:hi])
				lo = hi
			}
		}
		return muts
	})
}

// bucket is the write path's validate-and-bucket step, shared by
// IngestBatch and Replay.Add: it validates every update, failing the whole
// batch with the first rejected update's index before anything is
// bucketed, then refills sc with the non-zero-weight updates in shard
// order. Bucketing is a two-pass slice scheme: count per shard, then fill
// the shard-ordered sc.buf, leaving sc.counts[s] as the end of shard s's
// segment (which starts at counts[s-1], or 0 for shard 0).
func (e *Engine) bucket(updates []Update, sc *batchScratch) error {
	for j, u := range updates {
		if err := e.check(u.Instance, u.Weight); err != nil {
			return fmt.Errorf("engine: update %d: %w", j, err)
		}
	}
	ns := len(e.shards)
	if cap(sc.counts) < ns {
		sc.counts = make([]int, ns)
	}
	counts := sc.counts[:ns]
	clear(counts)

	nonzero := 0
	for _, u := range updates {
		if u.Weight == 0 {
			continue
		}
		counts[e.shardOf(u.Key)]++
		nonzero++
	}
	if cap(sc.buf) < nonzero {
		sc.buf = make([]Update, nonzero)
	}
	buf := sc.buf[:nonzero]
	sc.counts, sc.buf = counts, buf
	if nonzero == 0 {
		return nil
	}
	// counts[s] becomes shard s's segment start, then serves as the fill
	// cursor; after the fill pass it is the segment end (= next start).
	start := 0
	for s, c := range counts {
		counts[s] = start
		start += c
	}
	for _, u := range updates {
		if u.Weight == 0 {
			continue
		}
		s := e.shardOf(u.Key)
		buf[counts[s]] = u
		counts[s]++
	}
	return nil
}

// MutationSignal returns the engine's coalesced mutation wakeup: the
// channel receives at least one value after any operation that advanced
// Version (ingest, batch, state restore/merge), with bursts collapsed
// into one pending signal. It is the hook push-based readers build on:
// wake, debounce, read Version, re-serve. The channel is never closed,
// and is intended for a single consumer — concurrent receivers split the
// signals between them.
func (e *Engine) MutationSignal() <-chan struct{} { return e.notifyCh }

// notifyMutation pokes the mutation signal without blocking: if a wakeup
// is already pending, the burst coalesces into it.
func (e *Engine) notifyMutation() {
	select {
	case e.notifyCh <- struct{}{}:
	default:
	}
}

// Version is the engine's mutation version: the total count of ingest
// operations that changed snapshot-visible state, summed from per-shard
// counters that bump under their shard lock. It is monotone, and equal
// versions across two reads guarantee no mutation completed in between —
// the invariant the snapshot cache rests on. Zero-weight no-ops, rejected
// updates and dominated duplicates (max semantics: a weight at or below
// the retained one) never bump it, so such traffic keeps serving the
// cached snapshot.
func (e *Engine) Version() uint64 {
	var v uint64
	for _, sh := range e.shards {
		v += sh.muts.Load()
	}
	return v
}

func (e *Engine) check(instance int, weight float64) error {
	if instance < 0 || instance >= e.cfg.Instances {
		return fmt.Errorf("engine: instance %d outside [0, %d)", instance, e.cfg.Instances)
	}
	if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("engine: weight %g must be finite and nonnegative", weight)
	}
	return nil
}

// shardOf mixes the key (independently of the seed hash) and maps it to a
// shard index.
func (e *Engine) shardOf(key uint64) int {
	x := key
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(len(e.shards)))
}

// Stats summarizes the engine's contents and traffic. It is a consistent
// cut: Stats takes the same all-shard lock cut as Snapshot, so the counts
// describe one engine state (Keys, ActiveEntries, RetainedEntries,
// Ingests and Version all agree with each other).
type Stats struct {
	// Instances, K and Shards echo the configuration.
	Instances int `json:"instances"`
	K         int `json:"k"`
	Shards    int `json:"shards"`
	// Keys counts distinct item keys ever ingested.
	Keys int `json:"keys"`
	// ActiveEntries counts distinct (instance, key) pairs with positive
	// ingested weight — the batch sampler's TotalEntries.
	ActiveEntries int `json:"active_entries"`
	// RetainedEntries counts (instance, key) pairs currently held in
	// sketch heaps — the sketch's actual storage.
	RetainedEntries int `json:"retained_entries"`
	// Ingests counts accepted non-zero ingest operations.
	Ingests uint64 `json:"ingests"`
	// Version is the engine's mutation version as of the cut (see
	// Engine.Version).
	Version uint64 `json:"version"`
	// Snapshot counts snapshot rebuild work (see partition.go).
	Snapshot SnapshotStats `json:"snapshot"`
	// PerShard breaks mutation/key counts down by shard, in shard order —
	// the observability handle for shard skew.
	PerShard []ShardStats `json:"per_shard"`
}

// SnapshotStats counts snapshot rebuild work since engine start.
type SnapshotStats struct {
	// Rebuilds counts snapshot rebuilds that produced a view (cache
	// misses; cache hits are free and uncounted).
	Rebuilds uint64 `json:"rebuilds"`
	// PartitionsRebuilt counts shards reduced across all rebuilds: every
	// rebuild reduces every shard's retained entries, so it grows by the
	// shard count per rebuild.
	PartitionsRebuilt uint64 `json:"partitions_rebuilt"`
	// PartitionsReused is always 0: no rebuild reuses an earlier one's
	// reduction of a shard. It stays so that readers decoding the JSON
	// snapshot counters keep finding it.
	PartitionsReused uint64 `json:"partitions_reused"`
	// ThresholdRefreshes counts rebuilds where the global thresholds moved.
	ThresholdRefreshes uint64 `json:"threshold_refreshes"`
	// PlanRebuilds counts rebuilds that re-merged the key slice (new keys
	// appeared; weight-only churn reuses it).
	PlanRebuilds uint64 `json:"plan_rebuilds"`
}

// ShardStats is one shard's row in Stats.PerShard.
type ShardStats struct {
	// Mutations is the shard's mutation counter (these sum to Version).
	Mutations uint64 `json:"mutations"`
	// Keys counts distinct item keys routed to the shard.
	Keys int `json:"keys"`
}

// snapshotCounters backs Stats.Snapshot; fields mirror SnapshotStats.
type snapshotCounters struct {
	rebuilds        atomic.Uint64
	partsRebuilt    atomic.Uint64
	threshRefreshes atomic.Uint64
	planRebuilds    atomic.Uint64
}

// Stats returns a point-in-time summary. All shard locks are held while
// the counters are read, so the summary is one exactly consistent cut —
// never, say, a key counted in one shard while its entries are missed in
// another.
func (e *Engine) Stats() Stats {
	st := Stats{
		Instances: e.cfg.Instances,
		K:         e.cfg.K,
		Shards:    e.cfg.Shards,
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	// Ingests and the version counters bump under shard locks, so reading
	// them inside the cut keeps them consistent with the content counts.
	st.Ingests = e.ingests.Load()
	st.PerShard = make([]ShardStats, len(e.shards))
	for s, sh := range e.shards {
		m := sh.muts.Load()
		st.Version += m
		n := sh.len()
		st.Keys += n
		st.ActiveEntries += sh.activeEntries
		for i := range sh.heaps {
			st.RetainedEntries += len(sh.heaps[i].es)
		}
		st.PerShard[s] = ShardStats{Mutations: m, Keys: n}
	}
	// Rebuild counters bump under rebuildMu, not shard locks; they are
	// advisory observability, not part of the consistent cut.
	st.Snapshot = SnapshotStats{
		Rebuilds:           e.snapCtr.rebuilds.Load(),
		PartitionsRebuilt:  e.snapCtr.partsRebuilt.Load(),
		ThresholdRefreshes: e.snapCtr.threshRefreshes.Load(),
		PlanRebuilds:       e.snapCtr.planRebuilds.Load(),
	}
	for _, sh := range e.shards {
		sh.mu.Unlock()
	}
	return st
}

// shard is one lock stripe: the items routed to it (its registry, see
// registry.go) and its slice of every instance's bottom-(k+1) heap,
// whose entries' positions live in the registry's records. muts counts
// the shard's accepted non-zero ingests; it bumps under mu so that
// consistent cuts read it exactly, and is summed lock-free by
// Engine.Version. The registry lets Snapshot emit outcomes for
// unsketched items too, matching the batch sampler's full outcome list.
// A key's seed is not stored: hash.U(key) recomputes it for less than a
// cache miss costs.
type shard struct {
	mu   sync.Mutex
	muts atomic.Uint64
	registry
	heaps []bkHeap
}

// fold applies updates (all routed to sh) under sh's lock and returns how
// many changed snapshot-visible state. Counters bump under the same lock
// so a cut (Snapshot, Stats) reads version and traffic exactly as of the
// cut: muts counts snapshot-visible mutations, Ingests accepted
// operations.
func (sh *shard) fold(e *Engine, updates []Update) (muts uint64) {
	sh.mu.Lock()
	for _, u := range updates {
		if sh.ingest(e, u.Instance, u.Key, u.Weight) {
			muts++
		}
	}
	sh.muts.Add(muts)
	e.ingests.Add(uint64(len(updates)))
	sh.mu.Unlock()
	return muts
}

// ingest folds one observation into the shard and reports whether any
// snapshot-visible state changed (registry bitmask or sketch heap). A
// dominated duplicate changes nothing and must not bump the mutation
// counter, so cached snapshots survive duplicate-heavy streams. The caller
// holds sh.mu.
func (sh *shard) ingest(e *Engine, instance int, key uint64, w float64) bool {
	slot := sh.slot(key)
	activated := sh.activate(slot, instance/64, uint64(1)<<(instance%64)) > 0
	rank := sampling.Rank(sampling.RankPriority, e.cfg.Hash.U(key), w)
	return sh.heaps[instance].update(slot, key, w, rank) || activated
}
