// Package engine is a sharded, concurrent streaming store of coordinated
// bottom-k sketches — the streaming counterpart of dataset.SampleBottomK.
//
// An Engine tracks r instances over a universe of uint64 item keys. Each
// update Ingest(instance, key, weight) folds a weighted observation into
// the instance's bottom-k sketch under max-weight semantics: the effective
// weight of (instance, key) is the maximum over all updates, so replaying
// any permutation (or any superset with dominated duplicates) of a
// dataset's entries reproduces the batch sample of that dataset exactly.
//
// Coordination falls out of determinism: every instance ranks item key by
// rank = u/w with the same hashed seed u = hash.U(key) (priority sampling,
// "permanent random numbers"), so the sketches of all instances select
// similar items for similar data, which is what makes multi-instance
// functions (distances, Jaccard, max/or/and aggregates) estimable from
// per-instance summaries of size O(k).
//
// Why eviction loses nothing. A shard's per-instance heap keeps the k+1
// smallest-rank items it has seen. Ranks only decrease as weights grow, so
// once k+1 items of a shard outrank item x, they do so forever; x can then
// never re-enter the final bottom-k+1 unless a later update raises x's own
// weight — in which case x re-enters carrying that weight, which is then
// its maximum. Retained weights therefore equal the true (max) weight
// (after a RestoreState, wherever they can reach the view; see there),
// and Snapshot is exact, not approximate: it reduces the sketches
// to per-item TupleOutcomes via the same conditional-threshold reduction
// (sampling.CondThreshold, the paper's footnote 1) as the batch sampler,
// and the outcomes agree bit-for-bit, so every estimator built on outcomes
// (L*, U*, HT, Jaccard) serves live traffic unmodified.
//
// Concurrency: shards are selected by a hash of the item key and guarded by
// per-shard mutexes (lock striping), so writers on different shards never
// contend. Snapshot briefly locks all shards for a consistent cut. A write
// journals its whole batch as one record and folds it under the read side
// of a cut barrier, whose write side SketchState takes first,
// so a checkpoint cut never sees a journaled batch half-applied. Boot-time
// WAL replay (Replay) folds on one worker per core, each owning a fixed set
// of shards and taking every record in log order.
package engine
