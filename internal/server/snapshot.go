package server

import (
	"context"
	"sync"

	"repro/internal/engine"
)

// This file is the serving side of the engine's versioned snapshot cache:
// every endpoint reads the server's own engine, and a single-flight
// per-version result memo turns repeat queries against an unchanged
// engine into pure lookups — the steady-state read path takes no shard
// locks, does no snapshot reduction and runs no estimator, and a repeated
// /v1/query body is answered with its stored bytes, neither decoded,
// planned nor encoded again.

// SnapshotSource brings the server's engine up to date before a read. A
// cluster coordinator is one: its merge engine is the engine the server
// is built over, and Sync folds the nodes' changed sketches into it.
// Every read (/v1/query, each push round, the initial SSE push, /readyz)
// runs Sync when a source is set, then serves the engine's cached view —
// the view's Version keys the per-version result memo and the SSE ids.
// A failed Sync fails the read: an error implementing `Unavailable()
// bool` reporting true maps to 503, anything else to 500 (see
// acquireStatus). ctx is the serving request's context (or the server's
// drain context for the push loop), so an aborted request or a shutdown
// cancels in-flight node traffic.
type SnapshotSource interface {
	Sync(ctx context.Context) error
}

// acquire syncs the source, when one is set, and returns the engine's
// current view with the degraded label read after it: a concurrent sync
// can then only make the view fresher than its label claims, never
// staler.
func (s *Server) acquire(ctx context.Context) (engine.SnapshotView, *Degraded, error) {
	if s.snaps != nil {
		if err := s.snaps.Sync(ctx); err != nil {
			return engine.SnapshotView{}, nil, err
		}
	}
	view := s.eng.CachedView(0)
	if s.clusterRep == nil {
		return view, nil, nil
	}
	return view, s.clusterRep.Degraded(), nil
}

// Degraded labels a partial cluster read: which policy allowed it, how
// many nodes answered, and — per missing node — how stale its last-merged
// contribution (still present in the served view; folds are monotone)
// is. A response carrying this block is an explicit lower bound on the
// full-union estimate, per the monotone-estimation license: estimates
// from a subset of the coordinated samples stay well-defined, they just
// cover less. Absent block = exact full union.
type Degraded struct {
	Policy    string        `json:"policy"`
	Reachable int           `json:"reachable"`
	Total     int           `json:"total"`
	Missing   []MissingNode `json:"missing"`
}

// MissingNode names one node a degraded round could not reach.
type MissingNode struct {
	Node  string `json:"node"`
	Error string `json:"error"`
	// LastMergedVersion is the node's engine version at its last merged
	// fetch — the staleness of its surviving contribution to the view.
	LastMergedVersion uint64 `json:"last_merged_version"`
	// StaleSeconds is how long ago that merge happened (-1: this node's
	// state has never been merged, so the view holds nothing from it).
	StaleSeconds float64 `json:"stale_seconds"`
	NeverMerged  bool    `json:"never_merged,omitempty"`
}

// maxMemoEntries caps one version's memo so an adversarial query stream
// (unbounded distinct selections) cannot grow memory without bound;
// beyond the cap, queries still evaluate — they just stop being recorded.
// It caps the per-query results and the stored responses each.
const maxMemoEntries = 4096

// maxMemoResponseBytes caps the bytes one version's stored responses hold,
// request bodies and response bytes together (8 MiB: a body may be up to
// maxQueryBody). Beyond it, responses are served and not stored.
const maxMemoResponseBytes = 8 << 20

// resultMemo caches evaluated query results for ONE snapshot version.
// Estimators are deterministic functions of the snapshot, so a (version,
// query) pair fully determines the result, and a (version, request body)
// pair the whole /v1/query response: responses maps each body answered
// with a non-degraded 200 to the bytes written for it. The memo is
// dropped wholesale the first time a request is served from a newer
// version.
type resultMemo struct {
	version       uint64
	mu            sync.RWMutex
	m             map[string]*memoCall
	responses     map[string][]byte
	responseBytes int
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

// response returns the stored response to body, or nil.
func (mm *resultMemo) response(body []byte) []byte {
	mm.mu.RLock()
	defer mm.mu.RUnlock()
	return mm.responses[string(body)]
}

// record stores resp as the answer to body unless a cap is reached.
func (mm *resultMemo) record(body, resp []byte) {
	size := len(body) + len(resp)
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if _, ok := mm.responses[string(body)]; ok || len(mm.responses) >= maxMemoEntries || mm.responseBytes+size > maxMemoResponseBytes {
		return
	}
	mm.responses[string(body)] = resp
	mm.responseBytes += size
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
		fresh := &resultMemo{version: version, m: make(map[string]*memoCall), responses: make(map[string][]byte)}
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
