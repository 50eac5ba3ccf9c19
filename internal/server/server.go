// Package server exposes a streaming engine over a small JSON HTTP API —
// the serving layer of the monestd daemon.
//
// Endpoints:
//
//	POST /v1/ingest           one JSON batch of {instance, key|id, weight}
//	POST /v1/stream           long-lived binary ingest: update frames, the
//	                          bytes the WAL journals (see stream.go); both
//	                          feed the one apply step (see apply.go)
//	POST /v1/query            batched multi-statistic queries over one
//	                          shared snapshot (see query.go)
//	GET  /v1/subscribe        Server-Sent Events push: registered queries
//	                          are re-evaluated and pushed on version
//	                          change, debounced (see subscribe.go)
//	GET  /v1/stats            engine contents + per-endpoint counters
//	POST /v1/checkpoint       persist a sketch checkpoint, truncate the WAL
//	GET  /v1/export           portable binary sketch artifact (octet-stream)
//	                          with ETag "<incarnation>.<version>.<registry>";
//	                          If-None-Match short-circuits to 304, and
//	                          ?since=<etag>, the cluster coordinator's
//	                          fetch, leaves out an unchanged registry
//	                          (see durable.go)
//	POST /v1/import           merge an exported artifact into the engine
//	                          (checkpointed when persistence is attached)
//	GET  /metrics             Prometheus text exposition
//	GET  /healthz             liveness probe (process up; always 200)
//	GET  /readyz              readiness probe: 503 while draining or
//	                          while Config.Snapshots cannot sync
//	                          (cluster read-policy floor unmet)
//
// Item functions: rg (param p), rgplus (p), max, or, and, lincomb (comma
// list c plus p). Estimators resolve through the estreg registry
// ("lstar", "ustar", "ht", "voptimal", "order:<spec>", plus anything the
// operator registered). String item keys are hashed with
// sampling.StringKey, so external writers using the same salt stay
// coordinated with the server's sketches.
//
// Requests are strict: JSON bodies reject unknown fields and GET
// endpoints reject unknown query parameters, both with a structured
// {"error": {"code", "message"}} body — a typo like "estimtor" is a 400,
// never a silently ignored default. The same envelope covers requests
// that never reach a handler: unknown paths (404, code "not_found") and
// wrong methods (405, code "method_not_allowed", Allow header preserved)
// answer in JSON too, so clients parse exactly one error shape.
//
// Every snapshot-backed JSON response (/v1/query, /v1/stats) carries a
// top-level "version": the engine mutation version the answer reflects.
// Equal versions across responses mean they were computed from identical
// engine contents; the version is also the key of the server's result
// memo.
//
// Every read endpoint answers from the engine's versioned snapshot cache,
// after syncing Config.Snapshots when one is set, and a per-version
// result memo (snapshot.go): while no ingest intervenes, repeat queries
// take no shard locks, re-reduce nothing, and re-run no estimators.
//
// When Config.Cluster reports a partial cluster view (non-strict read
// policies), every snapshot-backed response and SSE push carries an
// explicit "degraded" block naming the missing nodes — a partial answer
// is never presented as exact. The write path can apply backpressure
// (Config.IngestRate/IngestBurst/IngestInflight, see ratelimit.go).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/estreg"
	"repro/internal/funcs"
	"repro/internal/sampling"
	"repro/internal/store"
)

// maxIngestBody caps ingest request bodies (16 MiB) against unbounded
// memory use by a misbehaving client.
const maxIngestBody = 16 << 20

// Server routes the API onto one engine. Create with New or NewWith; the
// zero value is not usable.
type Server struct {
	eng        *engine.Engine
	reg        *estreg.Registry
	defaultEst string
	mux        *http.ServeMux
	started    time.Time
	metrics    map[string]*endpointMetrics
	// snaps, when set, is synced before every read of eng; memo caches
	// evaluated results per snapshot version (snapshot.go).
	snaps SnapshotSource
	memo  atomic.Pointer[resultMemo]
	// ingest is where /v1/ingest and /v1/stream updates land — the local
	// engine by default, a cluster coordinator's routed scatter when
	// Config.Ingest overrides it.
	ingest Ingestor
	// persist, when set, backs /v1/checkpoint and makes /v1/import
	// durable (see durable.go).
	persist *store.Persistence
	// incarnation is random per server: the first field of /v1/export
	// ETags, so no cursor outlives the process that minted it.
	incarnation string
	// wire counts streaming-ingest and subscription traffic (stream.go);
	// broadcast owns the /v1/subscribe registry and push loop
	// (subscribe.go); drainCtx is done once Server.Drain is called — its
	// Done channel gates both on shutdown, and the broadcaster's snapshot
	// acquisitions run under it so a draining server cancels in-flight
	// cluster scatter-gathers that no request context covers.
	wire        wireStats
	broadcast   *broadcaster
	drainCtx    context.Context
	drainCancel context.CancelFunc
	// heartbeat and maxSubscribers start at subscribeHeartbeat and
	// maxSubscribers; tests shorten them before serving.
	heartbeat      time.Duration
	maxSubscribers int
	// gate applies ingest backpressure (nil = unlimited); idem recognizes
	// replayed write batches by Idempotency-Key so retried routed ingest
	// never double-counts.
	gate *ingestGate
	idem *idemStore
	// writes counts open write sessions: /v1/ingest and /v1/stream
	// requests from beginApply to endApply (apply.go). The in-flight
	// budget reads it, and the end that drops it to 0 pokes writesEnded
	// (cap 1, never blocking) so the push loop can close its debounce
	// window as soon as the burst is over (subscribe.go).
	writes      atomic.Int64
	writesEnded chan struct{}
	// clusterRep, when set, labels reads with its degraded block and
	// feeds the "cluster" sections of /v1/stats and /metrics.
	clusterRep ClusterReporter
}

// ClusterReporter exposes coordinator state to responses, /v1/stats and
// /metrics — satisfied by *cluster.Coordinator. Degraded labels the last
// completed sync (nil = every node reached).
type ClusterReporter interface {
	Stats() Stats
	Degraded() *Degraded
}

// Stats is a snapshot of a cluster coordinator's scatter-gather counters:
// the "cluster" section of /v1/stats.
type Stats struct {
	// Syncs counts completed scatter-gather rounds (degraded ones
	// included; DegradedSyncs counts just those).
	Syncs         uint64 `json:"syncs"`
	DegradedSyncs uint64 `json:"degraded_syncs"`
	// Fetches counts 200 sketch responses (node state actually
	// transferred and merged); NotModified counts 304s (version vector
	// hit — nothing re-fetched).
	Fetches     uint64 `json:"fetches"`
	NotModified uint64 `json:"not_modified"`
	// StateBytes totals artifact bytes fetched from nodes.
	StateBytes uint64 `json:"state_bytes"`
	// RoutedUpdates counts updates forwarded to owner nodes: every
	// update an owner acknowledged, including a failed write's shares
	// that landed on live owners.
	RoutedUpdates uint64 `json:"routed_updates"`
	// Policy is the configured read policy; Nodes is per-node breaker
	// and version-vector state.
	Policy string      `json:"policy"`
	Nodes  []NodeStats `json:"nodes"`
}

// NodeStats is one node's availability state as the coordinator sees it.
type NodeStats struct {
	Node    string `json:"node"`
	Breaker string `json:"breaker"` // closed | open | half-open
	// BreakerOpens counts closed/half-open → open transitions;
	// ShortCircuits counts requests skipped without touching the wire.
	BreakerOpens  uint64 `json:"breaker_opens"`
	ShortCircuits uint64 `json:"short_circuits"`
	// LastMergedVersion/StaleSeconds mirror the degraded-block labels
	// (StaleSeconds -1 = never merged).
	LastMergedVersion uint64  `json:"last_merged_version"`
	StaleSeconds      float64 `json:"stale_seconds"`
}

// Config customizes a server beyond its engine.
type Config struct {
	// Registry resolves estimator names; nil means estreg.Default().
	Registry *estreg.Registry
	// DefaultEstimator is used when a request names none. Default "lstar".
	DefaultEstimator string
	// Snapshots, when set, is synced before every read of the engine (a
	// cluster coordinator over its own merge engine). It also backs GET
	// /readyz: the server is ready while a sync succeeds (a coordinator
	// meeting its read-policy floor). Nil serves the engine as it is — a
	// node recovers before its listener opens, so answering at all is
	// ready, and a probe never cuts its engine.
	Snapshots SnapshotSource
	// Ingest overrides where /v1/ingest and /v1/stream updates land; nil
	// means the engine itself. A cluster coordinator supplies its routed
	// scatter here so write traffic forwards to the owning nodes.
	Ingest Ingestor
	// Persist, when set, is the engine's attached persistence layer:
	// POST /v1/checkpoint cuts through it, and /v1/import checkpoints
	// after merging. Nil leaves the engine in-memory only; /v1/checkpoint
	// then answers 503.
	Persist *store.Persistence
	// SubscribeDebounce bounds how the push loop coalesces a write burst
	// (default 100ms): a round starts once the last open write session
	// ends, at most one debounce after the wakeup while one stays open,
	// and never within one debounce of the previous round.
	SubscribeDebounce time.Duration
	// IngestRate caps each client's ingest throughput (updates/sec,
	// token bucket keyed by client IP; 0 = unlimited) with IngestBurst
	// capacity (0 = max(IngestRate, 1)). Refused work answers 429 +
	// Retry-After.
	IngestRate  float64
	IngestBurst float64
	// IngestInflight bounds concurrently-served ingest requests plus
	// open streams (0 = unlimited); beyond it new work answers 429.
	IngestInflight int
	// Cluster, when set, labels every snapshot-backed response and push
	// with its degraded block and adds coordinator scatter-gather,
	// breaker and degraded-read state to /v1/stats and /metrics.
	Cluster ClusterReporter
}

// endpointMetrics counts one endpoint's traffic. Fields are atomics so
// handlers never contend.
type endpointMetrics struct {
	requests  atomic.Uint64
	errors    atomic.Uint64
	latencyNS atomic.Uint64
}

// EndpointStats is the JSON view of one endpoint's counters.
type EndpointStats struct {
	Requests     uint64  `json:"requests"`
	Errors       uint64  `json:"errors"`
	AvgLatencyMS float64 `json:"avg_latency_ms"`
}

// apiError is the structured error body: {"error": {"code", "message"}}.
// 429 responses add the retry hint, and a failed stream adds the applied
// progress (the torn-frame contract in error form).
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSeconds mirrors the Retry-After header (429 only).
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
	// AppliedFrames/AppliedUpdates report how much of a failed stream is
	// applied: its first AppliedFrames frames (stream errors only).
	AppliedFrames  *int `json:"applied_frames,omitempty"`
	AppliedUpdates *int `json:"applied_updates,omitempty"`
}

func errCode(status int) string {
	switch {
	case status == http.StatusNotFound:
		return "not_found"
	case status == http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case status == http.StatusTooManyRequests:
		return "rate_limited"
	case status == http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case status >= 400 && status < 500:
		return "bad_request"
	case status == http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

// writeError emits the structured error envelope, decorating rate-limit
// errors with the Retry-After header and their envelope fields. A body
// over its endpoint's cap (http.MaxBytesReader tripping mid-read) is a
// 413 whatever status the handler guessed for the read failure.
func writeError(w http.ResponseWriter, code int, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	body := apiError{Code: errCode(code), Message: err.Error()}
	var rl *rateLimitError
	if errors.As(err, &rl) {
		setRetryHeaders(w, rl)
		body.RetryAfterSeconds = rl.retryAfter.Seconds()
	}
	var pe *progressError
	if errors.As(err, &pe) {
		body.AppliedFrames, body.AppliedUpdates = &pe.frames, &pe.updates
	}
	writeJSON(w, code, map[string]apiError{"error": body})
}

// Ingestor is where /v1/ingest and /v1/stream updates land: one write
// session per request. Ingest pulls the request's batches from next, in
// order, until next returns io.EOF (the request ended) or another error
// (the request failed; Ingest returns that error unless its own failure
// came first). It reports the batches it has applied through applied —
// n more, in order — and returns once every batch it pulled is applied or
// failed. The local engine (engineIngestor) applies and reports each
// batch before it pulls the next, so a stream cannot run ahead of the
// engine; a cluster coordinator routes the batches to their owner nodes
// and reports them once every owner acknowledged its share. ctx is the
// serving request's context: remote-backed ingestors must honor it so an
// aborted request cancels in-flight forwards; local folds ignore it.
type Ingestor interface {
	Ingest(ctx context.Context, next func() ([]engine.Update, error), applied func(n int)) error
}

// engineIngestor adapts *engine.Engine to the Ingestor session. Local
// folds are lock-bounded and never block on the network, so the context
// is ignored.
type engineIngestor struct{ eng *engine.Engine }

func (e engineIngestor) Ingest(_ context.Context, next func() ([]engine.Update, error), applied func(int)) error {
	for {
		batch, err := next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := e.eng.IngestBatch(batch); err != nil {
			return err
		}
		applied(1)
	}
}

// acquireStatus maps a SnapshotSource failure to an HTTP status: errors
// advertising Unavailable() (a cluster node down, degraded mode) are 503
// so clients and orchestrators can tell "backend gone" from "bad query";
// everything else is a 500.
func acquireStatus(err error) int {
	if unavailable(err) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// unavailable reports whether err advertises Unavailable(): the backend
// (a cluster node, a routed owner) is gone rather than the request bad.
func unavailable(err error) bool {
	var u interface{ Unavailable() bool }
	return errors.As(err, &u) && u.Unavailable()
}

// New returns a server wired to the engine with the default registry.
func New(eng *engine.Engine) *Server { return NewWith(eng, Config{}) }

// NewWith returns a server wired to the engine with a custom estimator
// registry and default estimator. The default estimator must build for
// the registry (checked lazily per request; cmd/monestd validates it at
// startup).
func NewWith(eng *engine.Engine, cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = estreg.Default()
	}
	if cfg.DefaultEstimator == "" {
		cfg.DefaultEstimator = "lstar"
	}
	if cfg.SubscribeDebounce <= 0 {
		cfg.SubscribeDebounce = 100 * time.Millisecond
	}
	if cfg.Ingest == nil {
		cfg.Ingest = engineIngestor{eng}
	}
	drainCtx, drainCancel := context.WithCancel(context.Background())
	s := &Server{
		eng:            eng,
		reg:            cfg.Registry,
		defaultEst:     cfg.DefaultEstimator,
		mux:            http.NewServeMux(),
		started:        time.Now(),
		metrics:        make(map[string]*endpointMetrics),
		snaps:          cfg.Snapshots,
		ingest:         cfg.Ingest,
		persist:        cfg.Persist,
		incarnation:    newIncarnation(),
		drainCtx:       drainCtx,
		drainCancel:    drainCancel,
		heartbeat:      subscribeHeartbeat,
		maxSubscribers: maxSubscribers,
		gate:           newIngestGate(cfg.IngestRate, cfg.IngestBurst, cfg.IngestInflight),
		idem:           newIdemStore(),
		writesEnded:    make(chan struct{}, 1),
		clusterRep:     cfg.Cluster,
	}
	s.broadcast = newBroadcaster(s, cfg.SubscribeDebounce)
	s.route("POST /v1/ingest", s.handleIngest)
	s.route("POST /v1/stream", s.handleStream)
	s.routeRaw("POST /v1/query", s.handleQuery)
	s.routeRaw("GET /v1/subscribe", s.handleSubscribe)
	s.route("GET /v1/stats", s.handleStats)
	s.route("POST /v1/checkpoint", s.handleCheckpoint)
	s.route("POST /v1/import", s.handleImport)
	s.routeRaw("GET /v1/export", s.handleExport)
	s.routeRaw("GET /metrics", s.handleMetrics)
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /readyz", s.handleReadyz)
	return s
}

// ServeHTTP implements http.Handler. Requests that match no route — an
// unknown path (404) or a known path with the wrong method (405) — get
// the same structured {"error": {"code", "message"}} body every
// registered endpoint uses, instead of the mux's plain-text defaults.
// The mux still decides the status and the 405 Allow header; only the
// body is replaced. Pattern-matched requests (including the mux's
// path-cleaning redirects, which carry a pattern) pass through untouched.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if _, pattern := s.mux.Handler(r); pattern == "" {
		probe := errorProbe{header: make(http.Header)}
		s.mux.ServeHTTP(&probe, r)
		code := probe.code
		if code == 0 {
			code = http.StatusNotFound
		}
		if allow := probe.header.Get("Allow"); allow != "" {
			w.Header().Set("Allow", allow)
		}
		msg := fmt.Sprintf("no endpoint %s %s", r.Method, r.URL.Path)
		if code == http.StatusMethodNotAllowed {
			msg = fmt.Sprintf("method %s not allowed for %s (Allow: %s)", r.Method, r.URL.Path, probe.header.Get("Allow"))
		}
		writeJSON(w, code, map[string]apiError{"error": {Code: errCode(code), Message: msg}})
		return
	}
	s.mux.ServeHTTP(w, r)
}

// errorProbe captures the status and headers the mux's fallback handlers
// (NotFoundHandler, the 405 responder) would have written, so ServeHTTP
// can keep their routing decision while replacing the plain-text body.
type errorProbe struct {
	header http.Header
	code   int
}

func (p *errorProbe) Header() http.Header { return p.header }

func (p *errorProbe) WriteHeader(code int) {
	if p.code == 0 {
		p.code = code
	}
}

func (p *errorProbe) Write(b []byte) (int, error) {
	if p.code == 0 {
		p.code = http.StatusOK
	}
	return len(b), nil
}

// route registers an instrumented handler. Handlers return a status code
// and either a JSON-marshalable body or an error.
func (s *Server) route(pattern string, h func(*http.Request) (int, any, error)) {
	s.routeRaw(pattern, func(w http.ResponseWriter, r *http.Request) (int, error) {
		code, body, err := h(r)
		if err == nil {
			writeJSON(w, code, body)
		}
		return code, err
	})
}

// routeRaw registers an instrumented handler that writes its own success
// response (non-JSON endpoints: /v1/export, /metrics). On error the
// handler must NOT have written headers yet; the structured JSON error
// body is emitted here. route builds on it, so every endpoint shares
// one metrics bookkeeping.
func (s *Server) routeRaw(pattern string, h func(http.ResponseWriter, *http.Request) (int, error)) {
	m := &endpointMetrics{}
	s.metrics[pattern] = m
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code, err := h(w, r)
		m.requests.Add(1)
		m.latencyNS.Add(uint64(time.Since(start).Nanoseconds()))
		if err != nil {
			m.errors.Add(1)
			writeError(w, code, err)
		}
	})
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	b, _ := encodeJSON(body) // every body handed here encodes; one that did not would go out empty
	writeJSONBytes(w, code, b)
}

// encodeJSON is every response's JSON encoding: HTML characters left as
// they are, one value per line. /v1/query keeps the bytes it writes.
func encodeJSON(body any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(body)
	return buf.Bytes(), err
}

// writeJSONBytes writes an encoded JSON response.
func writeJSONBytes(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b) // headers are out; nothing useful to do on error
}

// checkParams rejects query parameters outside the endpoint's contract, so
// client typos fail loudly instead of silently falling back to defaults.
func checkParams(q url.Values, allowed ...string) error {
	for name := range q {
		ok := false
		for _, a := range allowed {
			if name == a {
				ok = true
				break
			}
		}
		if !ok {
			sort.Strings(allowed)
			return fmt.Errorf("unknown query parameter %q (have %s)", name, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// decodeStrict decodes a JSON body rejecting unknown fields and trailing
// garbage.
func decodeStrict(body io.Reader, dst any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding body: %w", err)
	}
	if dec.More() {
		return errors.New("decoding body: trailing data after JSON value")
	}
	return nil
}

// ingestRequest is the POST /v1/ingest body.
type ingestRequest struct {
	Updates []ingestUpdate `json:"updates"`
}

// ingestUpdate is one observation; a present Key (string, hashed with
// sampling.StringKey, empty allowed) takes precedence over the raw ID.
type ingestUpdate struct {
	Instance int     `json:"instance"`
	Key      *string `json:"key,omitempty"`
	ID       uint64  `json:"id,omitempty"`
	Weight   float64 `json:"weight"`
}

// handleIngest only turns the JSON body into one update batch; the apply
// step (apply.go) does everything else, exactly as for a stream frame.
func (s *Server) handleIngest(r *http.Request) (int, any, error) {
	a, err := s.beginApply(r, false)
	if err != nil {
		return http.StatusTooManyRequests, nil, err
	}
	defer s.endApply()
	var req ingestRequest
	if err := decodeStrict(http.MaxBytesReader(nil, r.Body, maxIngestBody), &req); err != nil {
		return http.StatusBadRequest, nil, err
	}
	if len(req.Updates) == 0 {
		return http.StatusBadRequest, nil, errors.New("empty update batch")
	}
	batch := make([]engine.Update, len(req.Updates))
	ingested := 0
	for i, u := range req.Updates {
		key := u.ID
		if u.Key != nil {
			key = sampling.StringKey(*u.Key)
		}
		batch[i] = engine.Update{Instance: u.Instance, Key: key, Weight: u.Weight}
		if u.Weight != 0 {
			ingested++
		}
	}
	read := false
	if status, err := a.run(func() ([]engine.Update, error) {
		if read {
			return nil, io.EOF
		}
		read = true
		return batch, nil
	}); err != nil {
		return status, nil, err
	}
	// ingested counts folded-in observations, matching the engine's
	// Ingests stat; zero weights are accepted no-ops reported as skipped.
	return http.StatusOK, map[string]int{"ingested": ingested, "skipped": len(batch) - ingested}, nil
}

// statisticSpec names an item function with its parameters, as a query
// spec's func/p/c fields spell it.
type statisticSpec struct {
	Func string
	P    *float64
	C    []float64
}

// key canonicalizes the spec for the batch planner's estimator cache.
func (sp statisticSpec) key() string {
	p := ""
	if sp.P != nil {
		p = strconv.FormatFloat(*sp.P, 'g', -1, 64)
	}
	cs := make([]string, len(sp.C))
	for i, c := range sp.C {
		cs[i] = strconv.FormatFloat(c, 'g', -1, 64)
	}
	return sp.Func + "|p=" + p + "|c=" + strings.Join(cs, ",")
}

// build constructs the item function.
func (sp statisticSpec) build() (funcs.F, error) {
	p := 1.0
	if sp.P != nil {
		p = *sp.P
	}
	name := sp.Func
	if name == "" {
		name = "rg"
	}
	switch name {
	case "rg":
		return funcs.NewRG(p)
	case "rgplus":
		return funcs.NewRGPlus(p)
	case "max":
		return funcs.MaxTuple{}, nil
	case "or":
		return funcs.OrTuple{}, nil
	case "and":
		return funcs.AndTuple{}, nil
	case "lincomb":
		if len(sp.C) == 0 {
			return nil, errors.New("func lincomb needs coefficients c")
		}
		return funcs.NewLinComb(sp.C, p)
	default:
		return nil, fmt.Errorf("unknown func %q (have rg, rgplus, max, or, and, lincomb)", name)
	}
}

func (s *Server) handleStats(r *http.Request) (int, any, error) {
	if err := checkParams(r.URL.Query()); err != nil {
		return http.StatusBadRequest, nil, err
	}
	endpoints := make(map[string]EndpointStats, len(s.metrics))
	for pattern, m := range s.metrics {
		n := m.requests.Load()
		es := EndpointStats{Requests: n, Errors: m.errors.Load()}
		if n > 0 {
			es.AvgLatencyMS = float64(m.latencyNS.Load()) / float64(n) / 1e6
		}
		endpoints[pattern] = es
	}
	st := s.eng.Stats()
	body := map[string]any{
		"version":        st.Version,
		"engine":         st,
		"estimators":     s.reg.Names(),
		"endpoints":      endpoints,
		"wire":           s.wire.view(),
		"memo_entries":   s.memoEntries(),
		"uptime_seconds": time.Since(s.started).Seconds(),
	}
	if s.gate != nil {
		body["ingest_limits"] = map[string]any{
			"rate":                    s.gate.rate,
			"burst":                   s.gate.burst,
			"inflight_max":            s.gate.maxInflight,
			"inflight_active":         s.writes.Load(),
			"rate_limited_total":      s.gate.rateLimited.Load(),
			"inflight_rejected_total": s.gate.inflightRejected.Load(),
		}
	}
	if s.clusterRep != nil {
		cl := map[string]any{"stats": s.clusterRep.Stats()}
		if d := s.clusterRep.Degraded(); d != nil {
			cl["degraded"] = d
		}
		body["cluster"] = cl
	}
	return http.StatusOK, body, nil
}

// handleHealthz deliberately skips checkParams: liveness probes may
// append cache-busting or tagging parameters, and a 400 here would flip
// an orchestrator's view of a healthy instance. It answers 200 for the
// whole process lifetime, drain included — liveness means "do not
// restart me", not "send me traffic"; that is /readyz.
func (s *Server) handleHealthz(*http.Request) (int, any, error) {
	return http.StatusOK, map[string]string{"status": "ok"}, nil
}

// handleReadyz is the readiness probe: 503 while draining or while a
// configured snapshot source cannot sync (a cluster coordinator that
// cannot meet its read-policy floor). Like /healthz it skips checkParams.
func (s *Server) handleReadyz(r *http.Request) (int, any, error) {
	if s.draining() {
		return http.StatusServiceUnavailable, nil, errDraining
	}
	if s.snaps != nil {
		if err := s.snaps.Sync(r.Context()); err != nil {
			return http.StatusServiceUnavailable, nil, fmt.Errorf("not ready: %w", err)
		}
	}
	return http.StatusOK, map[string]string{"status": "ready"}, nil
}

func finite(x float64) error {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		// JSON cannot carry Inf/NaN; without this guard the encoder fails
		// after the 200 header is out and the body arrives empty.
		return fmt.Errorf("estimate %g is not finite (weights near the float range overflow the sum)", x)
	}
	return nil
}
