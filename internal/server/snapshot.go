package server

import (
	"context"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/estreg"
)

// This file is the serving side of the engine's versioned snapshot cache:
// one SnapshotSource feeds every endpoint, a per-version result memo
// turns repeat queries against an unchanged engine into pure lookups, and
// a per-partition estimate cache makes whole-dataset sums proportional to
// the partitions that actually changed — the steady-state read path takes
// no shard locks, does no snapshot reduction and re-runs estimators only
// over mutated shards.

// SnapshotSource yields the snapshot view a request is answered from. All
// endpoints of a Server share one source; the view's Version keys the
// server's per-version result memo, so a source must return versions that
// change whenever the returned view's contents do. A source backed by
// remote state (a cluster coordinator scatter-gathering node sketches)
// may fail; an error implementing `Unavailable() bool` reporting true
// maps to 503, anything else to 500 (see acquireStatus). ctx is the
// serving request's context (or the server's drain context for the push
// loop): remote-backed sources must honor it so an aborted request or a
// shutdown cancels in-flight node traffic; local sources ignore it.
//
// The degraded block is nil for a complete view; a coordinator serving
// under a partial/quorum read policy returns the block naming the node
// contributions the view is missing. Snapshot-backed responses attach it
// verbatim, so a consumer can always tell a complete answer from a
// lower-bound one.
type SnapshotSource interface {
	AcquireSnapshot(ctx context.Context) (engine.SnapshotView, *cluster.Degraded, error)
}

// cachedSource is the default source: the engine's lock-free versioned
// snapshot cache, optionally serving a bounded-staleness snapshot under
// sustained write load (the monestd -snapshot-max-stale flag).
type cachedSource struct {
	eng      *engine.Engine
	maxStale time.Duration
}

func (c cachedSource) AcquireSnapshot(context.Context) (engine.SnapshotView, *cluster.Degraded, error) {
	return c.eng.CachedView(c.maxStale), nil, nil
}

// maxMemoEntries caps one version's memo so an adversarial query stream
// (unbounded distinct selections) cannot grow memory without bound;
// beyond the cap, queries still evaluate — they just stop being recorded.
const maxMemoEntries = 4096

// resultMemo caches evaluated query results for ONE snapshot version.
// Estimators are deterministic functions of the snapshot, so a (version,
// query) pair fully determines the result; the memo is dropped wholesale
// the first time a request is served from a newer version.
type resultMemo struct {
	version uint64
	mu      sync.RWMutex
	m       map[string]queryResult
}

func (mm *resultMemo) get(key string) (queryResult, bool) {
	mm.mu.RLock()
	r, ok := mm.m[key]
	mm.mu.RUnlock()
	return r, ok
}

func (mm *resultMemo) put(key string, r queryResult) {
	mm.mu.Lock()
	if len(mm.m) < maxMemoEntries {
		mm.m[key] = r
	}
	mm.mu.Unlock()
}

// memoFor returns the memo for the given snapshot version, rotating the
// server's current one when the version moved. Under bounded-staleness
// serving, two versions can briefly alternate; the memo then degrades to
// misses rather than ever serving a result across versions.
func (s *Server) memoFor(version uint64) *resultMemo {
	for {
		m := s.memo.Load()
		if m != nil && m.version == version {
			return m
		}
		fresh := &resultMemo{version: version, m: make(map[string]queryResult)}
		if s.memo.CompareAndSwap(m, fresh) {
			return fresh
		}
	}
}

// evalMemoized answers q from the memo when the same (version, query) was
// evaluated before, evaluating and recording it otherwise.
func (s *Server) evalMemoized(q *plannedQuery, view engine.SnapshotView, memo *resultMemo) queryResult {
	key := q.memoKey()
	if r, ok := memo.get(key); ok {
		return r
	}
	r := q.eval(view, s.partials)
	memo.put(key, r)
	return r
}

// maxPartialPlans caps how many distinct plans keep per-partition
// estimate vectors; beyond it, new plans compute without caching
// (adversarial distinct-estimator streams stay bounded at roughly
// 8·keys·maxPartialPlans bytes).
const maxPartialPlans = 32

// partialVec is one plan's cached per-item estimates for one partition,
// valid exactly while the partition's epoch holds (an unchanged epoch
// guarantees byte-identical outcomes, and estimators are deterministic).
type partialVec struct {
	epoch uint64
	ests  []float64
}

// partialEstimates caches per-partition estimate vectors keyed by plan.
// A full-dataset sum then re-runs the estimator only over partitions
// whose epoch moved since the last evaluation — under single-shard churn
// that is 1/Shards of the items — while remaining bit-identical to
// estreg.Sum over the merged outcomes (the same values are accumulated in
// the same ascending-key order).
type partialEstimates struct {
	mu sync.Mutex
	m  map[string]map[int]partialVec // plan key → shard → vector
	// scatter pools the merged-position buffers of sum (*[]float64): one
	// per concurrent sum instead of a keys-sized array per call.
	scatter sync.Pool
}

func newPartialEstimates() *partialEstimates {
	return &partialEstimates{m: make(map[string]map[int]partialVec)}
}

// sum evaluates a whole-dataset estreg.Sum against the view using cached
// per-partition vectors. ok=false means the caller must fall back to
// estreg.Sum over the materialized snapshot — either an estimator error
// (the fallback reproduces estreg.Sum's exact merged-index error) or a
// view without partition metadata.
func (pe *partialEstimates) sum(planKey string, est estreg.Estimator, view engine.SnapshotView) (estreg.SumResult, bool) {
	n := len(view.Keys)
	if len(view.Parts) == 0 && n > 0 {
		return estreg.SumResult{}, false
	}
	vecs := make([][]float64, len(view.Parts))
	pe.mu.Lock()
	plan := pe.m[planKey]
	for s := range view.Parts {
		if pv, ok := plan[s]; ok && pv.epoch == view.Parts[s].Epoch {
			vecs[s] = pv.ests
		}
	}
	pe.mu.Unlock()

	// Scatter every partition's vector (cached or freshly computed) into
	// merged-key positions, then accumulate in ascending order — the exact
	// float operation sequence of estreg.Sum over the merged outcomes.
	buf, _ := pe.scatter.Get().(*[]float64)
	if buf == nil || cap(*buf) < n {
		buf = new([]float64)
		*buf = make([]float64, n)
	}
	defer pe.scatter.Put(buf)
	full := (*buf)[:n]
	clear(full) // a reused buffer starts as a fresh one did
	covered := 0
	var freshShards []int
	for s, part := range view.Parts {
		vec := vecs[s]
		if vec == nil {
			vec = make([]float64, len(part.Outcomes))
			for t, o := range part.Outcomes {
				x, err := est.Estimate(o)
				if err != nil {
					return estreg.SumResult{}, false
				}
				vec[t] = x
			}
			vecs[s] = vec
			freshShards = append(freshShards, s)
		}
		if len(vec) != len(part.Index) {
			return estreg.SumResult{}, false // stale cache shape: bail out
		}
		for t, x := range vec {
			full[part.Index[t]] = x
		}
		covered += len(vec)
	}
	if covered != n {
		return estreg.SumResult{}, false
	}

	var res estreg.SumResult
	for k := 0; k < n; k++ {
		x := full[k]
		res.Estimate += x
		res.SecondMoment += x * x
		if res.Items == 0 || x > res.MaxItem {
			res.MaxItem = x
		}
		res.Items++
	}

	if len(freshShards) > 0 {
		pe.mu.Lock()
		plan = pe.m[planKey]
		if plan == nil {
			if len(pe.m) < maxPartialPlans {
				plan = make(map[int]partialVec, len(view.Parts))
				pe.m[planKey] = plan
			}
		}
		if plan != nil {
			for _, s := range freshShards {
				plan[s] = partialVec{epoch: view.Parts[s].Epoch, ests: vecs[s]}
			}
		}
		pe.mu.Unlock()
	}
	return res, true
}
