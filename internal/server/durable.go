package server

import (
	cryptorand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/store"
)

// This file is the durability face of the API:
//
//	POST /v1/checkpoint  cut + persist the sketch state, truncate the WAL
//	GET  /v1/export      the engine state as a portable binary artifact,
//	                     conditional on its ETag (incarnation, version and
//	                     registry size of the cut); ?since=<etag>, the
//	                     coordinator's fetch, leaves out an unchanged
//	                     registry
//	POST /v1/import      merge an exported artifact into the live engine
//	                     (lossless coordinated-sketch merge)
//	GET  /metrics        Prometheus text exposition of engine + endpoint
//	                     counters
//
// Export/import work with or without a configured store: the artifact is
// store.EncodeState's integrity-checked binary format, so a sketch can be
// carried between monestd instances (sharing the seed salt), parked in
// object storage, or fetched by a cluster coordinator. Checkpointing
// requires Config.Persist.
//
// One-codec discipline: both endpoints move store.EncodeState bytes, so
// wire == disk == export — corruption checking (CRC), seed fingerprints
// and bounds validation all come from the single decoder, and a hostile
// peer's bytes fail closed with a structured 400 before the engine is
// touched (DecodeState never partially applies; MergeState validates
// before mutating).

// maxImportBody caps /v1/import request bodies (64 MiB — a 1M-key,
// 2-instance artifact is ~40 MiB).
const maxImportBody = 64 << 20

func (s *Server) handleCheckpoint(r *http.Request) (int, any, error) {
	if err := checkParams(r.URL.Query()); err != nil {
		return http.StatusBadRequest, nil, err
	}
	if s.persist == nil {
		return http.StatusServiceUnavailable, nil, errors.New("no persistence configured (start monestd with -data-dir)")
	}
	start := time.Now()
	stats, err := s.persist.Checkpoint()
	if err != nil {
		return http.StatusInternalServerError, nil, err
	}
	return http.StatusOK, map[string]any{
		"checkpoint":  stats,
		"duration_ms": float64(time.Since(start).Nanoseconds()) / 1e6,
	}, nil
}

// newIncarnation mints the random per-process first field of every
// /v1/export ETag.
func newIncarnation() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// Non-cryptographic fallback: it only has to differ between
		// successive processes serving one address.
		return strconv.FormatInt(time.Now().UnixNano(), 16)
	}
	return hex.EncodeToString(b[:])
}

// exportCursor is a parsed /v1/export ETag, "<incarnation>.<version>.<reg>":
// the serving process, the engine version of the cut, and the registry
// size at the cut (keys plus active entries, see Engine.SketchState).
type exportCursor struct {
	incarnation  string
	version, reg uint64
}

// etag renders the cursor as a strong ETag.
func (c exportCursor) etag() string {
	return `"` + c.incarnation + "." + strconv.FormatUint(c.version, 10) + "." + strconv.FormatUint(c.reg, 10) + `"`
}

// parseCursor parses an ETag, with or without its quotes. The empty
// string is the zero cursor: a peer that holds nothing yet.
func parseCursor(tag string) (exportCursor, error) {
	if len(tag) >= 2 && tag[0] == '"' && tag[len(tag)-1] == '"' {
		tag = tag[1 : len(tag)-1]
	}
	if tag == "" {
		return exportCursor{}, nil
	}
	parts := strings.Split(tag, ".")
	if len(parts) == 3 && parts[0] != "" {
		v, verr := strconv.ParseUint(parts[1], 10, 64)
		reg, rerr := strconv.ParseUint(parts[2], 10, 64)
		if verr == nil && rerr == nil {
			return exportCursor{incarnation: parts[0], version: v, reg: reg}, nil
		}
	}
	return exportCursor{}, fmt.Errorf("since %q is not a /v1/export ETag (want \"<incarnation>.<version>.<registry>\")", tag)
}

// current reports whether c names this process's engine at version v: the
// incarnation is random per server process, so a restarted or replaced
// node never matches a cursor minted by its predecessor, whatever the
// versions say.
func (s *Server) current(c exportCursor, v uint64) bool {
	return c.incarnation == s.incarnation && c.version == v
}

// matchETag returns the If-None-Match validator that names this process's
// engine at version v ("*" matches anything). Weak validators (W/ prefix)
// match too: the payload is a deterministic function of the version, so
// weak and strong agree here.
func (s *Server) matchETag(header string, v uint64) (string, bool) {
	for _, part := range strings.Split(header, ",") {
		tag := strings.TrimPrefix(strings.TrimSpace(part), "W/")
		if tag == "*" {
			return "", true
		}
		if c, err := parseCursor(tag); err == nil && s.current(c, v) {
			return c.etag(), true
		}
	}
	return "", false
}

// notModified answers 304 with no body, labeled with etag when known.
func notModified(w http.ResponseWriter, etag string) (int, error) {
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
	w.WriteHeader(http.StatusNotModified)
	return http.StatusNotModified, nil
}

// handleExport streams the sketch state (an engine.State) as a binary
// artifact. A raw (non-JSON) endpoint: the artifact is the exact byte
// format checkpoints use, so equal states export equal bytes — the
// comparison the recovery tests rest on. The ETag is the cursor
// "<incarnation>.<version>.<reg>", and a conditional request whose
// incarnation and version match answers 304 from one lock-free atomic
// load — no cut, no encoding, no body.
//
// A plain GET and GET /v1/export?since=<etag>, the cluster coordinator's
// fetch, carry the same entries — per instance the global bottom-(k+1),
// about r·(k+1)·16 bytes — and differ only in the key registry: it rides
// along unless since names this incarnation and the cut's registry size.
// A read through the coordinator thus costs what the sample holds, not
// what the node's registry holds.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) (int, error) {
	q := r.URL.Query()
	if err := checkParams(q, "since"); err != nil {
		return http.StatusBadRequest, err
	}
	// An absent or empty since is the zero cursor, whose incarnation never
	// matches: no 304, and the registry ships.
	since, err := parseCursor(q.Get("since"))
	if err != nil {
		return http.StatusBadRequest, err
	}
	if s.current(since, s.eng.Version()) {
		return notModified(w, since.etag())
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if etag, ok := s.matchETag(inm, s.eng.Version()); ok {
			return notModified(w, etag)
		}
	}
	known := uint64(0)
	if since.incarnation == s.incarnation {
		known = since.reg
	}
	// The cut's own version (not a separate Version() call) labels the
	// bytes: a write racing this request must not let a pre-write artifact
	// carry a post-write ETag, or the caller's cache would pin stale state.
	st, reg := s.eng.SketchState(known)
	cur := exportCursor{incarnation: s.incarnation, version: st.Version, reg: reg}
	data := store.EncodeState(st)
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("ETag", cur.etag())
	h.Set("Content-Length", fmt.Sprint(len(data)))
	h.Set("Content-Disposition", `attachment; filename="monest-sketch.bin"`)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data) // header is out; a client hang-up is not our error
	return http.StatusOK, nil
}

func (s *Server) handleImport(r *http.Request) (int, any, error) {
	if err := checkParams(r.URL.Query()); err != nil {
		return http.StatusBadRequest, nil, err
	}
	data, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxImportBody))
	if err != nil {
		return http.StatusBadRequest, nil, fmt.Errorf("reading artifact: %w", err)
	}
	st, err := store.DecodeState(data)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	if err := s.eng.MergeState(st); err != nil {
		return http.StatusBadRequest, nil, err
	}
	resp := map[string]any{
		"merged_keys":    len(st.Keys),
		"merged_ingests": st.Ingests,
		"engine":         s.eng.Stats(),
	}
	// Merging bypasses the WAL (activity masks have no per-update form),
	// so the new state is volatile until checkpointed; do it now rather
	// than leaving a window where a crash silently undoes the import.
	if s.persist != nil {
		cs, err := s.persist.Checkpoint()
		if err != nil {
			return http.StatusInternalServerError, nil, fmt.Errorf("import applied but checkpoint failed: %w", err)
		}
		resp["checkpoint"] = cs
	}
	return http.StatusOK, resp, nil
}

// handleMetrics exposes the counters /v1/stats reports, in Prometheus
// text exposition format (no client library — the format is lines of
// `name{labels} value`). Counter names follow prometheus conventions:
// monotone counters end in _total, gauges are bare.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) (int, error) {
	if err := checkParams(r.URL.Query()); err != nil {
		return http.StatusBadRequest, err
	}
	st := s.eng.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)

	var b []byte
	gauge := func(name, help string, v float64) {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	gauge("monest_engine_keys", "Distinct item keys ever ingested.", float64(st.Keys))
	gauge("monest_engine_active_entries", "Distinct (instance, key) pairs with positive weight.", float64(st.ActiveEntries))
	gauge("monest_engine_retained_entries", "Sketch entries currently held in bottom-k heaps.", float64(st.RetainedEntries))
	gauge("monest_engine_instances", "Configured coordinated instances.", float64(st.Instances))
	gauge("monest_engine_k", "Configured bottom-k sketch size.", float64(st.K))
	gauge("monest_engine_shards", "Configured lock-striped shards.", float64(st.Shards))
	counter("monest_engine_ingests_total", "Accepted non-zero ingest operations.", float64(st.Ingests))
	counter("monest_engine_version", "Engine mutation version (snapshot-visible state changes).", float64(st.Version))
	gauge("monest_uptime_seconds", "Seconds since the server started.", time.Since(s.started).Seconds())

	counter("monest_snapshot_rebuilds_total", "Snapshot rebuilds (cache misses that cut and reduced the engine).", float64(st.Snapshot.Rebuilds))
	counter("monest_snapshot_partitions_rebuilt_total", "Shards reduced across rebuilds (every rebuild reduces every shard).", float64(st.Snapshot.PartitionsRebuilt))
	counter("monest_snapshot_threshold_refreshes_total", "Rebuilds where the global thresholds moved.", float64(st.Snapshot.ThresholdRefreshes))
	counter("monest_snapshot_plan_rebuilds_total", "Rebuilds that merged new keys into the key slice.", float64(st.Snapshot.PlanRebuilds))

	wire := s.wire.view()
	gauge("monest_stream_connections_active", "Open /v1/stream binary ingest connections.", float64(wire.ActiveStreams))
	counter("monest_stream_frames_total", "Binary ingest frames decoded and applied.", float64(wire.StreamFrames))
	counter("monest_stream_updates_total", "Updates ingested over binary streams.", float64(wire.StreamUpdates))
	gauge("monest_subscribers_active", "Open /v1/subscribe connections.", float64(wire.ActiveSubscribers))
	counter("monest_subscribe_pushed_events_total", "Estimate events delivered into subscriber buffers.", float64(wire.PushedEvents))
	counter("monest_subscribe_coalesced_events_total", "Version-change wakeups absorbed by the debounce window.", float64(wire.CoalescedEvents))
	counter("monest_subscribe_dropped_events_total", "Events dropped because a slow consumer's buffer was full.", float64(wire.DroppedEvents))
	counter("monest_subscribe_heartbeats_total", "SSE keepalive comments written.", float64(wire.Heartbeats))
	counter("monest_subscribe_resumes_total", "Subscriptions that resumed from a Last-Event-ID version.", float64(wire.Resumes))
	counter("monest_stream_frames_deduped_total", "Stream frames skipped as idempotent replays.", float64(wire.StreamFramesDeduped))

	if s.gate != nil {
		gauge("monest_ingest_rate_limit", "Per-client ingest rate limit (updates/sec; 0 = unlimited).", s.gate.rate)
		gauge("monest_ingest_inflight_active", "Open ingest requests and streams (write sessions).", float64(s.writes.Load()))
		counter("monest_ingest_rate_limited_total", "Ingest charges refused by a client's token bucket.", float64(s.gate.rateLimited.Load()))
		counter("monest_ingest_inflight_rejected_total", "Ingest requests refused by the in-flight budget.", float64(s.gate.inflightRejected.Load()))
	}

	if s.clusterRep != nil {
		cs := s.clusterRep.Stats()
		counter("monest_cluster_syncs_total", "Completed cluster sync rounds.", float64(cs.Syncs))
		counter("monest_cluster_degraded_syncs_total", "Sync rounds that served without every node (partial/quorum policy).", float64(cs.DegradedSyncs))
		counter("monest_cluster_fetches_total", "Node sketch fetches that returned state (200).", float64(cs.Fetches))
		counter("monest_cluster_not_modified_total", "Node sketch fetches answered 304 by the version vector.", float64(cs.NotModified))
		counter("monest_cluster_state_bytes_total", "Sketch state bytes fetched from nodes.", float64(cs.StateBytes))
		counter("monest_cluster_routed_updates_total", "Updates routed to owner nodes through /v1/ingest.", float64(cs.RoutedUpdates))
		degradedNow := 0.0
		if s.clusterRep.Degraded() != nil {
			degradedNow = 1
		}
		gauge("monest_cluster_degraded", "Whether the latest merged view is missing nodes (1 = degraded).", degradedNow)
		b = fmt.Appendf(b, "# HELP monest_cluster_node_breaker_state Circuit breaker state per node (0 closed, 1 half-open, 2 open).\n# TYPE monest_cluster_node_breaker_state gauge\n")
		for _, n := range cs.Nodes {
			v := map[string]int{"closed": 0, "half-open": 1, "open": 2}[n.Breaker]
			b = fmt.Appendf(b, "monest_cluster_node_breaker_state{node=%q} %d\n", n.Node, v)
		}
		b = fmt.Appendf(b, "# HELP monest_cluster_node_breaker_opens_total Times each node's breaker opened.\n# TYPE monest_cluster_node_breaker_opens_total counter\n")
		for _, n := range cs.Nodes {
			b = fmt.Appendf(b, "monest_cluster_node_breaker_opens_total{node=%q} %d\n", n.Node, n.BreakerOpens)
		}
		b = fmt.Appendf(b, "# HELP monest_cluster_node_short_circuits_total Node requests skipped while the breaker was open.\n# TYPE monest_cluster_node_short_circuits_total counter\n")
		for _, n := range cs.Nodes {
			b = fmt.Appendf(b, "monest_cluster_node_short_circuits_total{node=%q} %d\n", n.Node, n.ShortCircuits)
		}
	}

	b = fmt.Appendf(b, "# HELP monest_shard_mutations_total Snapshot-visible mutations per shard.\n# TYPE monest_shard_mutations_total counter\n")
	for i, sh := range st.PerShard {
		b = fmt.Appendf(b, "monest_shard_mutations_total{shard=\"%d\"} %d\n", i, sh.Mutations)
	}
	b = fmt.Appendf(b, "# HELP monest_shard_keys Distinct item keys per shard.\n# TYPE monest_shard_keys gauge\n")
	for i, sh := range st.PerShard {
		b = fmt.Appendf(b, "monest_shard_keys{shard=\"%d\"} %d\n", i, sh.Keys)
	}

	patterns := make([]string, 0, len(s.metrics))
	for p := range s.metrics {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	b = fmt.Appendf(b, "# HELP monest_http_requests_total Requests served per endpoint.\n# TYPE monest_http_requests_total counter\n")
	for _, p := range patterns {
		b = fmt.Appendf(b, "monest_http_requests_total{endpoint=%q} %d\n", p, s.metrics[p].requests.Load())
	}
	b = fmt.Appendf(b, "# HELP monest_http_errors_total Error responses per endpoint.\n# TYPE monest_http_errors_total counter\n")
	for _, p := range patterns {
		b = fmt.Appendf(b, "monest_http_errors_total{endpoint=%q} %d\n", p, s.metrics[p].errors.Load())
	}
	b = fmt.Appendf(b, "# HELP monest_http_latency_seconds_total Cumulative handler latency per endpoint.\n# TYPE monest_http_latency_seconds_total counter\n")
	for _, p := range patterns {
		b = fmt.Appendf(b, "monest_http_latency_seconds_total{endpoint=%q} %g\n", p, float64(s.metrics[p].latencyNS.Load())/1e9)
	}
	_, _ = w.Write(b)
	return http.StatusOK, nil
}
