package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/store"
)

// This file is the coordinator's client side of the node wire: binary
// sketch fetches (GET /v1/export?since=<cursor>), plus the retry,
// backoff and breaker discipline those fetches share with routed writes
// (route.go: one keyed POST /v1/stream per owner node and write
// request). Both move the same binary formats the node persists and
// exports — wire == disk == export.

// maxSketchBody caps a fetched node artifact (matches the server's
// /v1/import bound: a 1M-key 2-instance artifact is ~40 MiB).
const maxSketchBody = 64 << 20

// Transiently-failing node requests get nodeRetries extra attempts,
// paused by full jitter in [0, min(backoffMax, backoffBase<<attempt)).
const (
	nodeRetries = 1
	backoffBase = 25 * time.Millisecond
	backoffMax  = time.Second
)

// NodeError is a failure to reach or use one cluster node. It carries
// the HTTP status when the node answered (0 for transport failures), and
// reports Unavailable() for the cases where the node is effectively gone
// — the signal internal/server turns into a 503 degraded-mode response.
type NodeError struct {
	Addr   string
	Status int // 0 = no HTTP response (dial/timeout/transport)
	Err    error
}

func (e *NodeError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("cluster node %s: status %d: %v", e.Addr, e.Status, e.Err)
	}
	return fmt.Sprintf("cluster node %s: %v", e.Addr, e.Err)
}

func (e *NodeError) Unwrap() error { return e.Err }

// Unavailable reports whether the failure means the node is unreachable
// or broken (transport error or 5xx), as opposed to rejecting the
// request itself (4xx — a config mismatch the operator must fix).
func (e *NodeError) Unavailable() bool { return e.Status == 0 || e.Status >= 500 }

// nodeClient speaks the sketch-exchange wire to one node.
type nodeClient struct {
	addr    string // base URL, e.g. "http://127.0.0.1:9001"
	hc      *http.Client
	timeout time.Duration
	// br short-circuits requests while the node looks dead; jitter feeds
	// the full-jitter retry pauses. Fetches and routed streams share both
	// — availability is a property of the node, not of the verb.
	br     *breaker
	jitter *jitterSource
	// lastMergeAt is when commit last ran (unix nanos; 0 = never) — the
	// staleness label degraded blocks carry for this node.
	lastMergeAt atomic.Int64
	// etag is the /v1/export ETag of the last fetch whose state was
	// MERGED — the coordinator's cursor for this node, sent as ?since= —
	// and version its middle field, the node's engine version at that cut.
	// ingests is the node's cumulative Ingests at that cut, so each fetch
	// folds in only the increase. Only Coordinator.Sync writes these, via commit, and only
	// after MergeState succeeded: a fetch whose state never reached the
	// merge engine must not advance the cursor, or the node's next fetch
	// answers 304 (or leaves out a registry the merge engine never saw)
	// and the unmerged updates silently vanish from the merged view. etag
	// and ingests are guarded by Coordinator.syncMu; version is atomic
	// because Stats reads it outside a round.
	etag    string
	ingests uint64
	version atomic.Uint64
}

// commit records that the node's state at the cut labeled etag (engine
// version, cumulative ingests) is folded into the merge engine — the
// node's cursor for future conditional fetches.
func (n *nodeClient) commit(etag string, version, ingests uint64) {
	n.etag, n.ingests = etag, ingests
	n.version.Store(version)
	n.lastMergeAt.Store(time.Now().UnixNano())
}

// lastMerged reports the engine version of the node's last merged state
// and its age at now in seconds (-1 and ok = false before the first
// merge): the staleness both Stats' nodes and degraded blocks' missing
// entries carry. commit stores version before lastMergeAt, so a
// non-zero lastMergeAt pairs with that commit's version or a later one.
func (n *nodeClient) lastMerged(now time.Time) (version uint64, staleSeconds float64, ok bool) {
	at := n.lastMergeAt.Load()
	if at == 0 {
		return 0, -1, false
	}
	return n.version.Load(), now.Sub(time.Unix(0, at)).Seconds(), true
}

// missingEntry labels this node for a degraded block: the failure that
// excluded it this round, and how stale its surviving (already-merged)
// contribution to the view is.
func (n *nodeClient) missingEntry(err error, now time.Time) server.MissingNode {
	m := server.MissingNode{Node: n.addr, Error: err.Error()}
	var merged bool
	m.LastMergedVersion, m.StaleSeconds, merged = n.lastMerged(now)
	m.NeverMerged = !merged
	return m
}

// retrying runs op up to 1+nodeRetries times, retrying only failures that
// might be transient (transport errors and 5xx) with capped
// exponential backoff and full jitter, all behind the node's circuit
// breaker: while the breaker is open, the call short-circuits with
// ErrBreakerOpen without touching the wire, so a dead node costs the
// cluster ~nothing per round instead of timeout×(1+nodeRetries). Breaker
// outcomes are recorded on Unavailable-class results only — a 4xx
// proves the node reachable and counts as contact. Each attempt bounds
// itself by n.timeout: a fetch as a whole, a routed stream per write and
// per wait for its answer. probe tells op it carries the breaker's
// half-open probe, which a routed stream settles early (route.go).
func (n *nodeClient) retrying(ctx context.Context, op func(ctx context.Context, probe bool) error) error {
	var err error
	for attempt := 0; ; attempt++ {
		ok, probe := n.br.allow(time.Now())
		if !ok {
			return &NodeError{Addr: n.addr, Err: ErrBreakerOpen}
		}
		err = op(ctx, probe)
		if err == nil {
			n.br.success()
			return nil
		}
		if ctx.Err() != nil {
			// The caller gave up: no verdict on the node, but a probe
			// hands its slot back, or the breaker would stay half-open
			// with no probe left to close it.
			if probe {
				n.br.release()
			}
			return err
		}
		ne, ok := err.(*NodeError)
		unavailable := ok && ne.Unavailable()
		if unavailable {
			n.br.failure(time.Now())
		} else {
			n.br.success()
		}
		if !unavailable || attempt >= nodeRetries {
			return err
		}
		select {
		case <-time.After(backoffDelay(n.jitter, backoffBase, backoffMax, attempt)):
		case <-ctx.Done():
			return err
		}
	}
}

// fetchSketch GETs the node's sketch-sized state since the committed
// cursor (empty before the first merge). When the coordinator already
// holds the node's current version, the node answers 304 and a nil state
// comes back without a byte of state on the wire; otherwise the node
// answers its global bottom-(k+1) per instance, plus its key registry
// when the registry changed since the cursor. A 200 decodes and returns
// the artifact with its ETag WITHOUT touching the cursor — the caller
// commits it (commit) only after the state is actually merged, so a sync
// that fails on another node cannot strand this node's updates behind a
// cached cursor. size reports the state bytes transferred.
func (n *nodeClient) fetchSketch(ctx context.Context) (st *engine.State, etag string, size int, err error) {
	err = n.retrying(ctx, func(ctx context.Context, _ bool) error {
		ctx, cancel := context.WithTimeout(ctx, n.timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			n.addr+"/v1/export?since="+url.QueryEscape(n.etag), nil)
		if err != nil {
			return &NodeError{Addr: n.addr, Err: err}
		}
		resp, err := n.hc.Do(req)
		if err != nil {
			return &NodeError{Addr: n.addr, Err: err}
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusNotModified:
			st, etag = nil, ""
			return nil
		case http.StatusOK:
			data, err := io.ReadAll(io.LimitReader(resp.Body, maxSketchBody+1))
			if err != nil {
				return &NodeError{Addr: n.addr, Err: fmt.Errorf("reading sketch: %w", err)}
			}
			if len(data) > maxSketchBody {
				return &NodeError{Addr: n.addr, Status: resp.StatusCode,
					Err: fmt.Errorf("sketch exceeds %d bytes", maxSketchBody)}
			}
			decoded, err := store.DecodeState(data)
			if err != nil {
				return &NodeError{Addr: n.addr, Status: resp.StatusCode, Err: err}
			}
			// The ETag labels the artifact's own cut (the node labels the
			// bytes, not the moment); the caller commits it alongside the
			// merge, keeping cursor and merged contents atomic.
			st, etag, size = decoded, resp.Header.Get("ETag"), len(data)
			return nil
		default:
			return nodeHTTPError(n.addr, resp)
		}
	})
	return st, etag, size, err
}

// nodeHTTPError wraps a non-success node response, carrying (a prefix
// of) the body — the node's structured error envelope — as the message.
func nodeHTTPError(addr string, resp *http.Response) *NodeError {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		msg = resp.Status
	}
	return &NodeError{Addr: addr, Status: resp.StatusCode, Err: fmt.Errorf("%s", msg)}
}
