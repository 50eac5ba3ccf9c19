package server

import (
	"context"
	"sync"

	"repro/internal/cluster"
	"repro/internal/engine"
)

// This file is the serving side of the engine's versioned snapshot cache:
// one SnapshotSource feeds every endpoint, and a single-flight per-version
// result memo turns repeat queries against an unchanged engine into pure
// lookups — the steady-state read path takes no shard locks, does no
// snapshot reduction and runs no estimator.

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
// snapshot cache, always exact.
type cachedSource struct{ eng *engine.Engine }

func (c cachedSource) AcquireSnapshot(context.Context) (engine.SnapshotView, *cluster.Degraded, error) {
	return c.eng.CachedView(0), nil, nil
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
	m       map[string]*memoCall
}

// memoCall is one (version, query) evaluation, run at most once: the push
// round and a concurrent dash asking the same thing share it, the second
// waiting on the first. A finished call's once is one atomic load.
type memoCall struct {
	once sync.Once
	r    queryResult
}

// call returns the key's evaluation slot, or nil when the memo is full.
func (mm *resultMemo) call(key string) *memoCall {
	mm.mu.RLock()
	c := mm.m[key]
	mm.mu.RUnlock()
	if c != nil {
		return c
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if c = mm.m[key]; c == nil && len(mm.m) < maxMemoEntries {
		c = new(memoCall)
		mm.m[key] = c
	}
	return c
}

// memoFor returns the memo for the given snapshot version, rotating the
// server's current one when the version moved. Concurrent requests that
// acquired different versions can briefly alternate; the memo then
// degrades to misses rather than ever serving a result across versions.
func (s *Server) memoFor(version uint64) *resultMemo {
	for {
		m := s.memo.Load()
		if m != nil && m.version == version {
			return m
		}
		fresh := &resultMemo{version: version, m: make(map[string]*memoCall)}
		if s.memo.CompareAndSwap(m, fresh) {
			return fresh
		}
	}
}

// memoEntries is the /v1/stats gauge: the queries recorded for the version
// being served, at most maxMemoEntries.
func (s *Server) memoEntries() int {
	mm := s.memo.Load()
	if mm == nil {
		return 0
	}
	mm.mu.RLock()
	defer mm.mu.RUnlock()
	return len(mm.m)
}

// evalMemoized answers q from the memo when the same (version, query) was
// or is being evaluated, evaluating and recording it otherwise.
func (s *Server) evalMemoized(q *plannedQuery, view engine.SnapshotView, memo *resultMemo) queryResult {
	c := memo.call(q.memoKey())
	if c == nil {
		return q.eval(view)
	}
	c.once.Do(func() { c.r = q.eval(view) })
	return c.r
}
