package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// GET /v1/subscribe is the push-based read path: a client registers one
// or more (statistic, estimator, selection) queries — the same triples
// POST /v1/query answers — and holds the connection open; the server
// pushes re-evaluated results as Server-Sent Events whenever the engine's
// mutation version changes. Pushes are debounced and coalesced: a burst
// of writes yields one re-estimate round, evaluated once per distinct
// query set from the shared snapshot view (the single-flight per-version
// result memo and the sparse sums make each round proportional to the
// distinct queries times the sampled items, not the subscriber count
// times the key count). The debounce is a bound, not a fixed wait: a
// round starts as soon as the last open write session (a /v1/ingest or
// /v1/stream request) has ended, and at most one debounce after the
// first wakeup while a write is still in progress. Either way rounds
// start at least one debounce apart.
//
// Queries come from the URL: either one query spelled as parameters
// (statistic, func, p, c, estimator, plus comma-lists keys and ids), or
// ?queries=<JSON array of /v1/query specs> for a batch.
//
// Event schema (versioned exactly like /v1/query — the top-level
// "version" is the engine mutation version the results reflect):
//
//	event: estimate
//	id: <version>
//	data: {"version": N, "results": [<queryResult>, ...]}
//
// The first estimate event is pushed immediately on subscribe (the
// current state), comment lines (": ping") keep idle connections alive,
// and a final "event: drain" announces a server shutdown. A subscriber
// that reads too slowly has its oldest undelivered events dropped — the
// buffer is bounded and ingest never blocks on a slow consumer; each
// delivered event always carries the newest evaluated results.

// subscriberBuffer bounds each subscriber's undelivered-event queue.
// When it is full the broadcaster drops the oldest event: estimates are
// snapshots, not deltas, so the newest event supersedes everything queued
// before it.
const subscriberBuffer = 8

// maxSubscribeQueries caps the queries one subscription registers.
const maxSubscribeQueries = maxBatchQueries

// maxSubscribers caps concurrent /v1/subscribe connections; beyond it new
// subscriptions answer 503.
const maxSubscribers = 4096

// subscribeHeartbeat is the period of the ": ping" keepalive comment.
const subscribeHeartbeat = 15 * time.Second

// pushEvent is one encoded estimate push.
type pushEvent struct {
	version uint64
	data    []byte // the JSON data line: {"version": N, "results": [...]}
}

// subscriber is one /v1/subscribe connection's registration.
type subscriber struct {
	queries []*plannedQuery
	// shareKey identifies the query set; subscribers with equal keys share
	// one evaluation and one encoded payload per push round.
	shareKey string
	// events is the bounded undelivered-event queue: the broadcaster
	// sends, the connection handler receives, and on overflow the
	// broadcaster drops the oldest (see deliver).
	events chan pushEvent
	// lastVersion is the newest version delivered into events (sentinel
	// ^0 = nothing yet). The broadcaster skips subscribers already at the
	// round's version, and advance() keeps delivered versions monotone
	// even when the initial push races a broadcast round.
	lastVersion atomic.Uint64
}

// advance claims version v for delivery: it returns false when v is not
// newer than what was already delivered.
func (sub *subscriber) advance(v uint64) bool {
	for {
		old := sub.lastVersion.Load()
		if old != subVersionNone && v <= old {
			return false
		}
		if sub.lastVersion.CompareAndSwap(old, v) {
			return true
		}
	}
}

const subVersionNone = ^uint64(0)

// deliver queues ev without ever blocking: when the buffer is full the
// oldest undelivered event is discarded (counted as dropped) to make
// room. Only the broadcaster and the subscribing handler's initial push
// call deliver; the connection handler is the only receiver.
func (sub *subscriber) deliver(ev pushEvent, w *wireStats) {
	for {
		select {
		case sub.events <- ev:
			w.pushed.Add(1)
			return
		default:
		}
		select {
		case <-sub.events:
			w.dropped.Add(1)
		default:
		}
	}
}

// broadcaster owns the subscriber registry and the push loop. The loop
// runs only while subscribers exist: it wakes on the engine's coalesced
// mutation signal, absorbs the burst until it is over (debounceWait),
// evaluates each distinct query set once against one shared snapshot
// view, and delivers to every subscriber the round reaches.
type broadcaster struct {
	s        *Server
	debounce time.Duration
	// lastRound is when the last round began; only the loop touches it.
	lastRound time.Time

	mu      sync.Mutex
	subs    map[*subscriber]struct{}
	running bool
	// kick wakes the loop outside mutation traffic — in particular when
	// the last subscriber leaves, so the loop can park itself.
	kick chan struct{}
}

func newBroadcaster(s *Server, debounce time.Duration) *broadcaster {
	return &broadcaster{
		s:        s,
		debounce: debounce,
		subs:     make(map[*subscriber]struct{}),
		kick:     make(chan struct{}, 1),
	}
}

// register adds the subscriber and ensures the push loop is running.
func (b *broadcaster) register(sub *subscriber, max int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if max > 0 && len(b.subs) >= max {
		return fmt.Errorf("subscriber limit %d reached", max)
	}
	b.subs[sub] = struct{}{}
	if !b.running {
		b.running = true
		go b.loop()
	}
	return nil
}

func (b *broadcaster) unregister(sub *subscriber) {
	b.mu.Lock()
	delete(b.subs, sub)
	empty := len(b.subs) == 0
	b.mu.Unlock()
	if empty {
		select {
		case b.kick <- struct{}{}:
		default:
		}
	}
}

// snapshotSubs copies the current subscriber set (the round must not hold
// b.mu while evaluating estimators).
func (b *broadcaster) snapshotSubs() []*subscriber {
	b.mu.Lock()
	defer b.mu.Unlock()
	subs := make([]*subscriber, 0, len(b.subs))
	for sub := range b.subs {
		subs = append(subs, sub)
	}
	return subs
}

// loop is the push loop: wake, debounce, evaluate, deliver — parking
// itself when the subscriber set empties and exiting on drain.
func (b *broadcaster) loop() {
	sig := b.s.eng.MutationSignal()
	for {
		select {
		case <-sig:
		case <-b.kick:
		case <-b.s.drainCtx.Done():
			b.park()
			return
		}
		b.mu.Lock()
		n := len(b.subs)
		b.mu.Unlock()
		if n == 0 {
			b.park()
			return
		}
		if !b.debounceWait(sig) {
			b.park()
			return
		}
		// The round's snapshot covers every write signalled or ended
		// before it begins: a wakeup still pending is absorbed into it
		// rather than starting a round of its own, and only a session
		// that ends later may close the next window early.
		b.lastRound = time.Now()
		select {
		case <-sig:
			b.s.wire.coalesced.Add(1)
		default:
		}
		select {
		case <-b.s.writesEnded:
		default:
		}
		b.round()
	}
}

// park stops the loop; a later register restarts it.
func (b *broadcaster) park() {
	b.mu.Lock()
	b.running = false
	b.mu.Unlock()
}

// debounceWait absorbs mutation signals until the write burst is over,
// so the burst becomes one push round. The window closes early once a
// write session has ended since the last round began, none is open now
// and one debounce has passed since that round began; otherwise it
// closes one debounce after the wakeup, the longest a push waits behind
// a write still in progress, and the close of every burst no session's
// end accompanies (a direct Engine.IngestBatch, a coordinator's Sync).
// It returns false when the server started draining mid-window.
func (b *broadcaster) debounceWait(sig <-chan struct{}) bool {
	timer := time.NewTimer(b.debounce)
	defer timer.Stop()
	// spacing fires once the last round is one debounce old; nil when it
	// already is.
	var spacing <-chan time.Time
	if wait := b.debounce - time.Since(b.lastRound); wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		spacing = t.C
	}
	ended := false
	for {
		select {
		case <-sig:
			b.s.wire.coalesced.Add(1)
		case <-b.s.writesEnded:
			ended = true
		case <-spacing:
			spacing = nil
		case <-timer.C:
			return true
		case <-b.s.drainCtx.Done():
			return false
		}
		if ended && spacing == nil && b.s.writes.Load() == 0 {
			return true
		}
	}
}

// round evaluates one push round: one shared snapshot view, one
// evaluation and one encoded payload per distinct query set, one deliver
// per subscriber not already at the round's version. A failed sync (a
// cluster below its read-policy floor) skips the round — the next
// mutation signal retries,
// and subscribers keep their connections rather than seeing a push gap
// dressed up as data.
func (b *broadcaster) round() {
	// No request context covers the push loop; the drain context cancels
	// a round's in-flight cluster scatter-gather on shutdown.
	view, degraded, err := b.s.acquire(b.s.drainCtx)
	if err != nil {
		return
	}
	memo := b.s.memoFor(view.Version)
	encoded := make(map[string][]byte)
	for _, sub := range b.snapshotSubs() {
		if sub.lastVersion.Load() >= view.Version && sub.lastVersion.Load() != subVersionNone {
			continue
		}
		data, ok := encoded[sub.shareKey]
		if !ok {
			data = b.s.encodePush(sub.queries, view, memo, degraded)
			encoded[sub.shareKey] = data
		}
		if sub.advance(view.Version) {
			sub.deliver(pushEvent{version: view.Version, data: data}, &b.s.wire)
		}
	}
}

// encodePush evaluates the queries against the view and encodes the SSE
// data payload — the exact result objects POST /v1/query returns for the
// same specs at the same version, including the degraded block when the
// view was assembled without every cluster node.
func (s *Server) encodePush(queries []*plannedQuery, view engine.SnapshotView, memo *resultMemo, degraded *Degraded) []byte {
	results := make([]queryResult, len(queries))
	for i, q := range queries {
		results[i] = s.evalMemoized(q, view, memo)
	}
	data, err := json.Marshal(struct {
		Version  uint64        `json:"version"`
		Results  []queryResult `json:"results"`
		Degraded *Degraded     `json:"degraded,omitempty"`
	}{view.Version, results, degraded})
	if err != nil {
		// queryResult always marshals; a failure here is a programming
		// error surfaced to the subscriber rather than a silent stall.
		data = fmt.Appendf(nil, `{"version":%d,"error":%q}`, view.Version, err.Error())
	}
	return data
}

// parseSubscribeQueries reads the subscription's query set from the URL.
func (s *Server) parseSubscribeQueries(r *http.Request) ([]querySpec, error) {
	q := r.URL.Query()
	if err := checkParams(q, "statistic", "func", "p", "c", "estimator", "keys", "ids", "queries"); err != nil {
		return nil, err
	}
	if raw := q.Get("queries"); raw != "" {
		for _, p := range []string{"statistic", "func", "p", "c", "estimator", "keys", "ids"} {
			if q.Get(p) != "" {
				return nil, fmt.Errorf("parameter %q conflicts with queries (put it inside the JSON array)", p)
			}
		}
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		var specs []querySpec
		if err := dec.Decode(&specs); err != nil {
			return nil, fmt.Errorf("decoding queries: %w", err)
		}
		if dec.More() {
			return nil, errors.New("decoding queries: trailing data after JSON array")
		}
		if len(specs) == 0 {
			return nil, errors.New("queries names no queries")
		}
		if len(specs) > maxSubscribeQueries {
			return nil, fmt.Errorf("%d queries exceeds %d", len(specs), maxSubscribeQueries)
		}
		return specs, nil
	}
	spec := querySpec{Statistic: q.Get("statistic"), Func: q.Get("func"), Estimator: q.Get("estimator")}
	if raw := q.Get("p"); raw != "" {
		p, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("parameter p: %w", err)
		}
		spec.P = &p
	}
	if raw := q.Get("c"); raw != "" {
		for i, part := range strings.Split(raw, ",") {
			c, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return nil, fmt.Errorf("parameter c[%d]: %w", i, err)
			}
			spec.C = append(spec.C, c)
		}
	}
	if raw := q.Get("keys"); raw != "" {
		spec.Keys = strings.Split(raw, ",")
	}
	if raw := q.Get("ids"); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			id, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("parameter ids: %w", err)
			}
			spec.IDs = append(spec.IDs, id)
		}
	}
	return []querySpec{spec}, nil
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) (int, error) {
	if s.draining() {
		return http.StatusServiceUnavailable, errDraining
	}
	specs, err := s.parseSubscribeQueries(r)
	if err != nil {
		return http.StatusBadRequest, err
	}
	pl := s.newPlanner()
	queries := make([]*plannedQuery, len(specs))
	var shareKey strings.Builder
	for i, spec := range specs {
		q, err := pl.plan(spec)
		if err != nil {
			return http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err)
		}
		queries[i] = q
		shareKey.WriteString(q.memoKey())
		shareKey.WriteByte(0x1f)
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		return http.StatusInternalServerError, errors.New("response writer cannot stream (no http.Flusher)")
	}

	sub := &subscriber{
		queries:  queries,
		shareKey: shareKey.String(),
		events:   make(chan pushEvent, subscriberBuffer),
	}
	sub.lastVersion.Store(subVersionNone)
	// SSE resume: a reconnecting client replays the last `id:` line it saw
	// as Last-Event-ID. Seeding lastVersion with it makes the initial push
	// conditional — a client behind the current version gets the current
	// estimate immediately (advance succeeds), while a client already at
	// it skips the redundant re-send and waits for the next mutation.
	// Versions are process-local and reset on restart, so an id ABOVE the
	// current engine version can only come from another server incarnation
	// (or a buggy client) — honoring it would suppress pushes until the
	// version caught up, a silent gap; such ids degrade to fresh-subscriber
	// semantics (immediate initial push), as does an unparsable header.
	// Never a 400: resume is an optimization, not a contract.
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		if v, err := strconv.ParseUint(raw, 10, 64); err == nil && v != subVersionNone && v <= s.eng.Version() {
			sub.lastVersion.Store(v)
			s.wire.resumes.Add(1)
		}
	}
	if err := s.broadcast.register(sub, s.maxSubscribers); err != nil {
		return http.StatusServiceUnavailable, err
	}
	defer s.broadcast.unregister(sub)
	s.wire.subsActive.Add(1)
	defer s.wire.subsActive.Add(-1)

	// Registration precedes the initial push, so a mutation landing in
	// between reaches this subscriber through the broadcaster; advance()
	// keeps the two paths from reordering versions on the wire.
	view, degraded, err := s.acquire(r.Context())
	if err != nil {
		return acquireStatus(err), err // deferred unregister cleans up
	}
	if sub.advance(view.Version) {
		sub.deliver(pushEvent{
			version: view.Version,
			data:    s.encodePush(queries, view, s.memoFor(view.Version), degraded),
		}, &s.wire)
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the push path
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	heartbeat := time.NewTicker(s.heartbeat)
	defer heartbeat.Stop()
	ctx := r.Context()
	for {
		select {
		case ev := <-sub.events:
			if _, err := fmt.Fprintf(w, "event: estimate\nid: %d\ndata: %s\n\n", ev.version, ev.data); err != nil {
				return http.StatusOK, nil // client went away mid-write
			}
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return http.StatusOK, nil
			}
			s.wire.heartbeats.Add(1)
		case <-ctx.Done():
			return http.StatusOK, nil
		case <-s.drainCtx.Done():
			_, _ = io.WriteString(w, "event: drain\ndata: {}\n\n")
			flusher.Flush()
			return http.StatusOK, nil
		}
		flusher.Flush()
	}
}
