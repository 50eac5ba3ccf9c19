package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/estreg"
	"repro/internal/funcs"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/streamclient"
)

// This file is the traced run. In-program stage timers are a later issue,
// so layers are measured from outside: after the real-daemon part of a
// workload, the bench replays the workload's next inputs in-process as the
// caller of each layer's public functions, in the daemon's call order, and
// records a span around every call. Each request type is replayed twice:
// once layer by layer (the spans under an "op.*" root), and once through
// server.ServeHTTP on a recorder (a "server.*" span), so the handler's own
// overhead is the difference. The engines start from the exact state the
// daemon quiesced in, and the inputs continue the same generated stream.

// sink keeps measured loops from being optimised away.
var sink float64

// rig is the replay's shared state.
type rig struct {
	r   *run
	t   *tracer
	reg *estreg.Registry
	ctx context.Context
}

func (r *run) traced() error {
	ctx, cancel := context.WithTimeout(r.ctx, 2*time.Minute)
	defer cancel()
	g := &rig{r: r, t: newTracer(), reg: estreg.Default(), ctx: ctx}
	// handler is the span that serves the workload's primary request
	// in-process; layered is the root of the same memo-miss request done
	// layer by layer, which the handler's overhead is measured against.
	var handler, layered string
	var err error
	switch r.rep.workload {
	case "durable-ingest":
		handler, err = "server.stream", g.replayIngest()
	case "query-churn":
		handler, layered, err = "server.query_miss", "op.dash", g.replayChurn()
	case "query-static":
		handler, layered, err = "server.query_hit", "op.sel", g.replayStatic()
	case "cluster-3node":
		handler, layered, err = "server.query_miss", "op.dash", g.replayCluster()
	}
	if err != nil {
		return err
	}
	if err := g.t.write(r.fleet.outDir, r.rep.workload, r.seed); err != nil {
		return err
	}
	// The primary request's untraced median, measured in this invocation
	// before the replay, is what the handler time is reconciled against.
	g.metrics(aggregate(g.t.spans), handler, layered, r.rep.endToEnd["primary_p50_ms"].Value)
	return nil
}

// metrics turns span aggregates into the per-layer metrics. A layer the
// workload never called has no spans and reports 0.
func (g *rig) metrics(a map[string]layerAgg, handler, layered string, e2eMS float64) {
	rep := g.r.rep
	perUnit := func(metric, span string, unit time.Duration, name string) {
		if s, ok := a[span]; ok {
			rep.layer(metric, s.perUnit(unit), name, int(s.units))
		}
	}
	med := func(metric, span string, unit time.Duration, name string) {
		if s, ok := a[span]; ok {
			rep.layer(metric, s.medianIn(unit), name, s.calls)
		}
	}
	perUnit("sampling.hash_ns_per_key", "sampling.hash", time.Nanosecond, "ns")
	perUnit("store.frame_decode_ns_per_update", "store.frame_decode", time.Nanosecond, "ns")
	perUnit("engine.fold_ns_per_update", "engine.fold", time.Nanosecond, "ns")
	perUnit("streamclient.send_us_per_frame", "streamclient.send", time.Microsecond, "us")
	if wal, ok := a["engine.fold_wal"]; ok {
		rep.layer("store.wal_append_ns_per_update", wal.perUnit(time.Nanosecond)-a["engine.fold"].perUnit(time.Nanosecond), "ns", int(wal.units))
	}
	if srv, ok := a["server.stream"]; ok {
		// What the handler adds to the scanner and the journaled fold.
		rep.layer("server.stream_overhead_ns_per_update",
			srv.totalPerUnit(time.Nanosecond)-a["op.stream_wal"].totalPerUnit(time.Nanosecond), "ns", int(srv.units))
	}
	med("store.fsync_ms", "store.fsync", time.Millisecond, "ms")
	med("store.checkpoint_ms", "store.checkpoint", time.Millisecond, "ms")
	if s, ok := a["store.checkpoint"]; ok {
		rep.layer("store.checkpoint_bytes", ratio(s.units, float64(s.calls)), "bytes", s.calls)
	}
	med("store.recover_ms", "store.recover", time.Millisecond, "ms")
	if s, ok := a["store.recover"]; ok {
		rep.layer("store.replay_updates_per_s", ratio(s.units, s.self.Seconds()), "1/s", int(s.units))
	}
	med("store.state_decode_ms", "store.state_decode", time.Millisecond, "ms")
	med("store.state_encode_ms", "store.state_encode", time.Millisecond, "ms")
	if s, ok := a["store.state_encode"]; ok {
		rep.layer("store.state_bytes", ratio(s.units, float64(s.calls)), "bytes", s.calls)
	}
	med("engine.dump_ms", "engine.dump", time.Millisecond, "ms")
	med("engine.merge_ms", "engine.merge", time.Millisecond, "ms")
	med("engine.cut_ms", "engine.cut", time.Millisecond, "ms")
	med("engine.rebuild_ms", "engine.rebuild", time.Millisecond, "ms")
	med("engine.materialize_ms", "engine.materialize", time.Millisecond, "ms")
	perUnit("engine.cached_view_ns", "engine.cached_view", time.Nanosecond, "ns")
	med("estreg.build_us", "estreg.build", time.Microsecond, "us")
	for _, q := range []string{"lstar_rg1", "lstar_rg2", "lstar_rgplus", "ht_rg1", "jaccard"} {
		med("estreg.sum_ms."+q, "estreg.sum."+q, time.Millisecond, "ms")
	}
	perUnit("core.lstar_us_per_sampled_item", "core.lstar", time.Microsecond, "us")
	perUnit("core.ustar_ms_per_sampled_item", "core.ustar", time.Millisecond, "ms")
	perUnit("estreg.unsampled_ns_per_item", "estreg.unsampled", time.Nanosecond, "ns")
	med("server.query_hit_us", "server.query_hit", time.Microsecond, "us")
	med("server.query_miss_ms", "server.query_miss", time.Millisecond, "ms")
	if miss, ok := a["server.query_miss"]; ok {
		// What the handler adds to the layers it calls: JSON decoding,
		// planning, the memo and partial-estimate caches, JSON encoding.
		rep.layer("server.query_overhead_ms", miss.medianIn(time.Millisecond)-a[layered].medianIn(time.Millisecond), "ms", miss.calls)
	}
	med("server.push_cycle_ms", "server.push_cycle", time.Millisecond, "ms")
	if s, ok := a[handler]; ok && handler != "server.stream" {
		rep.layer("server.response_bytes", ratio(s.units, float64(s.calls)), "bytes", s.calls)
	}
	perUnit("cluster.route_us_per_frame", "cluster.route", time.Microsecond, "us")
	perUnit("cluster.ring_owner_ns", "cluster.ring_owner", time.Nanosecond, "ns")
	med("cluster.sync_ms", "cluster.sync", time.Millisecond, "ms")

	// Reconciliation: the in-process handler time is what the layers
	// account for; the rest of the untraced end-to-end median — HTTP, TCP,
	// scheduling on shared cores, daemon internals unreachable from
	// outside — is unattributed.
	if h, ok := a[handler]; ok && e2eMS > 0 {
		rep.layer("unattributed_share", 1-h.medianIn(time.Millisecond)/e2eMS, "share", h.calls)
	}
	rep.layer("trace.spans", float64(len(g.t.spans)), "count", 0)
}

// ---- shared replay steps ----

// finalUpdates lists each key's aggregated weight once: the state an
// engine must reach, as one batch.
func finalUpdates(final dataset.Dataset) []engine.Update {
	batch := make([]engine.Update, 0, final.N()*instances)
	for k := 0; k < final.N(); k++ {
		for i := 0; i < instances; i++ {
			batch = append(batch, engine.Update{Instance: i, Key: uint64(k), Weight: final.W[i][k]})
		}
	}
	return batch
}

// loadedEngine returns an engine in the state the daemon quiesced in.
func (g *rig) loadedEngine() (*engine.Engine, error) {
	eng, err := engine.New(engineConfig())
	if err != nil {
		return nil, err
	}
	final, err := g.r.gen.final()
	if err != nil {
		return nil, err
	}
	return eng, eng.IngestBatch(finalUpdates(final))
}

func encodeStream(frames [][]engine.Update) []byte {
	buf := store.AppendStreamHeader(nil)
	for _, f := range frames {
		buf = store.AppendFrame(buf, f)
	}
	return buf
}

// serve runs one request through a handler on a recorder and returns the
// response size.
func serve(h http.Handler, method, path, contentType string, body []byte) (int, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("%s %s in-process: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	return rec.Body.Len(), nil
}

// serveSpan is serve as one span whose units are the response bytes.
func (g *rig) serveSpan(name string, op int, h http.Handler, body []byte) error {
	id := g.t.begin(name, 0, op)
	n, err := serve(h, http.MethodPost, "/v1/query", "application/json", body)
	g.t.end(id, float64(n))
	return err
}

// foldStream is the daemon's stream loop with the bench as the caller:
// FrameScanner.Next, then Engine.IngestBatch, per frame.
func (g *rig) foldStream(op int, eng *engine.Engine, body []byte, rootSpan, foldSpan string) error {
	root := g.t.begin(rootSpan, 0, op)
	updates := 0
	defer func() { g.t.end(root, float64(updates)) }()
	sc := store.NewFrameScanner(bytes.NewReader(body))
	for {
		id := g.t.begin("store.frame_decode", root, op)
		batch, err := sc.Next()
		g.t.end(id, float64(len(batch)))
		if err == io.EOF {
			g.t.spans = g.t.spans[:len(g.t.spans)-1] // the EOF probe decoded nothing
			return nil
		}
		if err != nil {
			return err
		}
		id = g.t.begin(foldSpan, root, op)
		err = eng.IngestBatch(batch)
		g.t.end(id, float64(len(batch)))
		if err != nil {
			return err
		}
		updates += len(batch)
	}
}

// burst applies the stream's next frames to an engine directly.
func (g *rig) burst(eng *engine.Engine, frames [][]engine.Update) error {
	g.r.gen.fill(frames)
	for _, f := range frames {
		if err := eng.IngestBatch(f); err != nil {
			return err
		}
	}
	return nil
}

// dashLayers answers the dash from a view layer by layer: materialise the
// merged sample, build each estimator, sum it over every item.
func (g *rig) dashLayers(op, parent int, view engine.SnapshotView) error {
	var snap engine.Snapshot
	g.t.call("engine.materialize", parent, op, float64(len(view.Keys)), func() { snap = view.Snapshot() })
	outcomes := snap.Sample.Outcomes
	sum := func(span, estimator string, fs ...funcs.F) error {
		ests := make([]estreg.Estimator, len(fs))
		for i, f := range fs {
			var err error
			g.t.call("estreg.build", parent, op, 1, func() { ests[i], _, err = g.reg.Build(estimator, f, instances) })
			if err != nil {
				return err
			}
		}
		var err error
		g.t.call(span, parent, op, float64(len(outcomes)), func() {
			for _, est := range ests {
				var res estreg.SumResult
				if res, err = estreg.Sum(est, outcomes, nil); err != nil {
					return
				}
				sink += res.Estimate
			}
		})
		return err
	}
	for _, sp := range dashSpecs {
		var err error
		if sp.Statistic == "jaccard" {
			err = sum("estreg.sum.jaccard", sp.Estimator, funcs.AndTuple{}, funcs.OrTuple{})
		} else {
			f, ferr := buildFunc(sp)
			if ferr != nil {
				return ferr
			}
			name := fmt.Sprintf("estreg.sum.%s_%s", sp.Estimator, sp.Func)
			if sp.Func == "rg" {
				name += fmt.Sprint(sp.P) // rg1, rg2
			}
			err = sum(name, sp.Estimator, f)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// perItem times one estimator over the sampled and the unsampled items
// separately: an item with no known entry costs a branch, a sampled one
// costs the estimator.
func (g *rig) perItem(estimator, sampledSpan, unsampledSpan string, outcomes []sampling.TupleOutcome, ids []uint64) error {
	f, err := funcs.NewRG(1)
	if err != nil {
		return err
	}
	est, _, err := g.reg.Build(estimator, f, instances)
	if err != nil {
		return err
	}
	var sampled, unsampled []sampling.TupleOutcome
	pick := func(o sampling.TupleOutcome) {
		if o.NumKnown() > 0 {
			sampled = append(sampled, o)
		} else {
			unsampled = append(unsampled, o)
		}
	}
	if ids == nil {
		for _, o := range outcomes {
			pick(o)
		}
	} else {
		for _, id := range ids {
			pick(outcomes[id])
		}
	}
	op := g.t.op()
	for _, part := range []struct {
		span  string
		items []sampling.TupleOutcome
	}{{sampledSpan, sampled}, {unsampledSpan, unsampled}} {
		if len(part.items) == 0 {
			continue
		}
		g.t.call(part.span, 0, op, float64(len(part.items)), func() {
			for _, o := range part.items {
				var x float64
				if x, err = est.Estimate(o); err != nil {
					return
				}
				sink += x
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// readViews times the read-side engine entry points on a clean engine: an
// exact cut that finds nothing dirty, and the lock-free cached view.
func (g *rig) readViews(eng *engine.Engine) {
	op := g.t.op()
	g.t.call("engine.cut", 0, op, 1, func() { eng.FreshView() })
	const reads = 1000
	g.t.call("engine.cached_view", 0, op, reads, func() {
		for i := 0; i < reads; i++ {
			sink += float64(eng.CachedView(0).Version)
		}
	})
}

// ---- durable-ingest ----

func (g *rig) replayIngest() error {
	sz := g.r.sz
	hash := sampling.NewSeedHash(seedSalt)
	g.t.call("sampling.hash", 0, g.t.op(), float64(sz.universe), func() {
		for k := 0; k < sz.universe; k++ {
			sink += hash.U(uint64(k))
		}
	})

	// The client library against a server that only drains the body: what
	// a writer pays to frame and send, with no engine behind it.
	drain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		_, _ = io.Copy(io.Discard, req.Body)
		_, _ = io.WriteString(w, `{"frames":0,"updates":0}`)
	}))
	defer drain.Close()
	frames := newFrames(sz.ingestFrames)
	for i := 0; i < 8; i++ {
		g.r.gen.fill(frames)
		id := g.t.begin("streamclient.send", 0, g.t.op())
		s, err := streamclient.OpenStream(g.ctx, drain.Client(), drain.URL)
		if err != nil {
			return err
		}
		for _, f := range frames {
			if err := s.Send(f); err != nil {
				break // Close has the cause
			}
		}
		_, err = s.Close()
		g.t.end(id, float64(len(frames)))
		if err != nil {
			return err
		}
	}

	// Two engines from the quiesced state: one with no journal, one with
	// the file store attached the way monestd -data-dir attaches it.
	plain, err := g.loadedEngine()
	if err != nil {
		return err
	}
	durable, err := g.loadedEngine()
	if err != nil {
		return err
	}
	dir := filepath.Join(g.r.fleet.outDir, fmt.Sprintf("trace-data-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	opts := store.Options{Fsync: store.FsyncInterval}
	st, err := store.Open(dir, opts)
	if err != nil {
		return err
	}
	persist, _, err := store.Attach(durable, st)
	if err != nil {
		st.Close()
		return err
	}
	// Attach journals from now on; the loaded state predates it, so start
	// the store's life with a checkpoint, as a daemon's periodic one would.
	if _, err := persist.Checkpoint(); err != nil {
		st.Close()
		return err
	}
	srv := server.New(durable)

	const streams = 16
	for i := 0; i < streams; i++ {
		op := g.t.op()
		g.r.gen.fill(frames)
		if err := g.foldStream(op, plain, encodeStream(frames), "op.stream", "engine.fold"); err != nil {
			return err
		}
		g.r.gen.fill(frames)
		if err := g.foldStream(op, durable, encodeStream(frames), "op.stream_wal", "engine.fold_wal"); err != nil {
			return err
		}
		var serr error
		g.t.call("store.fsync", 0, op, 1, func() { serr = persist.Sync() })
		if serr != nil {
			return serr
		}
		g.r.gen.fill(frames)
		body := encodeStream(frames)
		id := g.t.begin("server.stream", 0, op)
		_, err := serve(srv, http.MethodPost, "/v1/stream", store.StreamContentType, body)
		g.t.end(id, float64(len(frames)*frameUpdates))
		if err != nil {
			return err
		}
	}

	// Checkpoint, the workload's fixed tail, then the kill-equivalent: the
	// store is closed without a final checkpoint and a fresh engine
	// recovers from the directory.
	var cs store.CheckpointStats
	id := g.t.begin("store.checkpoint", 0, g.t.op())
	cs, err = persist.Checkpoint()
	g.t.end(id, float64(cs.Bytes))
	if err != nil {
		return err
	}
	for i := 0; i < sz.tailStreams; i++ {
		if err := g.burst(durable, frames); err != nil {
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	fresh, err := engine.New(engineConfig())
	if err != nil {
		return err
	}
	var rec store.RecoveryStats
	var st2 store.Store
	id = g.t.begin("store.recover", 0, g.t.op())
	if st2, err = store.Open(dir, opts); err == nil {
		_, rec, err = store.Attach(fresh, st2)
	}
	g.t.end(id, float64(rec.Updates))
	if err != nil {
		return err
	}
	defer st2.Close()
	if want := sz.tailStreams * sz.ingestFrames * frameUpdates; rec.Updates != want {
		return fmt.Errorf("in-process recovery replayed %d updates, the tail was %d", rec.Updates, want)
	}
	return g.stateCodec(fresh, nil)
}

// stateCodec times the state artifact path: dump, encode, decode and, when
// a union engine is given, merge — the four steps of a cluster sync and of
// a checkpoint restore.
func (g *rig) stateCodec(eng, union *engine.Engine) error {
	op := g.t.op()
	var st *engine.State
	g.t.call("engine.dump", 0, op, 1, func() { st = eng.DumpState() })
	var data []byte
	id := g.t.begin("store.state_encode", 0, op)
	data = store.EncodeState(st)
	g.t.end(id, float64(len(data)))
	var err error
	g.t.call("store.state_decode", 0, op, float64(len(data)), func() { st, err = store.DecodeState(data) })
	if err != nil || union == nil {
		return err
	}
	g.t.call("engine.merge", 0, op, float64(len(st.Keys)), func() { err = union.MergeState(st) })
	return err
}

// ---- query-churn ----

func (g *rig) replayChurn() error {
	const burstFrames = 4
	layered, err := g.loadedEngine()
	if err != nil {
		return err
	}
	served, err := g.loadedEngine()
	if err != nil {
		return err
	}
	srv := server.NewWith(served, server.Config{SubscribeDebounce: 10 * time.Millisecond})
	defer srv.Drain()
	frames := newFrames(burstFrames)
	dashBody := queryBody(dashSpecs)

	var view engine.SnapshotView
	for i := 0; i < 40; i++ {
		// Write half: a burst folded with the bench as the stream loop.
		op := g.t.op()
		g.r.gen.fill(frames)
		if err := g.foldStream(op, layered, encodeStream(frames), "op.stream", "engine.fold"); err != nil {
			return err
		}
		// Read half, layer by layer: the rebuild the burst forces, then
		// the four statistics.
		op = g.t.op()
		root := g.t.begin("op.dash", 0, op)
		g.t.call("engine.rebuild", root, op, 1, func() { view = layered.FreshView() })
		err := g.dashLayers(op, root, view)
		g.t.end(root, 0)
		if err != nil {
			return err
		}
		g.readViews(layered)
		// The same through the handler: a miss after a burst, then a hit.
		if err := g.burst(served, frames); err != nil {
			return err
		}
		if err := g.serveSpan("server.query_miss", g.t.op(), srv, dashBody); err != nil {
			return err
		}
		if err := g.serveSpan("server.query_hit", g.t.op(), srv, dashBody); err != nil {
			return err
		}
	}
	if err := g.perItem("lstar", "core.lstar", "estreg.unsampled", view.Snapshot().Sample.Outcomes, nil); err != nil {
		return err
	}

	// Push cycle: a burst lands → the subscriber holds the push for it,
	// over loopback, debounce included.
	ts := httptest.NewServer(srv)
	defer ts.Close()
	sub, err := streamclient.Subscribe(g.ctx, &http.Client{}, ts.URL, subscribeQuery)
	if err != nil {
		return err
	}
	defer sub.Close()
	for i := 0; i < 20; i++ {
		g.r.gen.fill(frames)
		id := g.t.begin("server.push_cycle", 0, g.t.op())
		for _, f := range frames {
			if err := served.IngestBatch(f); err != nil {
				return err
			}
		}
		want := served.Version()
		for {
			p, err := sub.NextPush()
			if err != nil {
				return fmt.Errorf("in-process subscriber: %w", err)
			}
			if p.Version >= want {
				break
			}
		}
		g.t.end(id, 1)
	}
	return nil
}

// ---- query-static ----

func (g *rig) replayStatic() error {
	eng, err := g.loadedEngine()
	if err != nil {
		return err
	}
	srv := server.New(eng)
	heavy := g.r.gen.heavy(heavyKeys)
	dashBody := queryBody(dashSpecs)
	if err := g.serveSpan("server.query_warm", g.t.op(), srv, dashBody); err != nil {
		return err
	}
	for i := 0; i < 200; i++ {
		if err := g.serveSpan("server.query_hit", g.t.op(), srv, dashBody); err != nil {
			return err
		}
	}
	g.readViews(eng)
	view := eng.CachedView(0)
	outcomes := view.Snapshot().Sample.Outcomes

	// What the dash costs when it is not a memo hit, for scale, and the
	// Horvitz–Thompson baseline beside L*.
	if err := g.dashLayers(g.t.op(), 0, view); err != nil {
		return err
	}
	rg1, err := funcs.NewRG(1)
	if err != nil {
		return err
	}
	ht, _, err := g.reg.Build("ht", rg1, instances)
	if err != nil {
		return err
	}
	g.t.call("estreg.sum.ht_rg1", 0, g.t.op(), float64(len(outcomes)), func() {
		var res estreg.SumResult
		res, err = estreg.Sum(ht, outcomes, nil)
		sink += res.Estimate
	})
	if err != nil {
		return err
	}
	if err := g.perItem("lstar", "core.lstar", "estreg.unsampled", outcomes, nil); err != nil {
		return err
	}

	// sel: a memo miss against the unchanged snapshot, layer by layer and
	// through the handler (on windows the other path has not touched).
	for i := 0; i < 40; i++ {
		sp := selSpec(heavy, 2*i, g.r.sz.selIDs, selEstimators[i%len(selEstimators)])
		op := g.t.op()
		root := g.t.begin("op.sel", 0, op)
		var est estreg.Estimator
		var berr error
		g.t.call("estreg.build", root, op, 1, func() { est, _, berr = g.reg.Build(sp.Estimator, rg1, instances) })
		if berr != nil {
			return berr
		}
		items := make([]int, len(sp.IDs))
		for j, id := range sp.IDs {
			items[j], _ = view.Index(id)
		}
		g.t.call("estreg.sum.sel", root, op, float64(len(items)), func() {
			var res estreg.SumResult
			res, berr = estreg.Sum(est, outcomes, items)
			sink += res.Estimate
		})
		g.t.end(root, 0)
		if berr != nil {
			return berr
		}
		next := selSpec(heavy, 2*i+1, g.r.sz.selIDs, sp.Estimator)
		if err := g.serveSpan("server.query_miss", g.t.op(), srv, queryBody([]querySpec{next})); err != nil {
			return err
		}
	}

	// ustar: per item, and through the handler (on requests the other path
	// has not sent).
	for i := 0; i < 8; i++ {
		if err := g.perItem("ustar", "core.ustar", "core.ustar_unsampled", outcomes, ustarSpec(heavy, 2*i, g.r.sz.ustarIDs).IDs); err != nil {
			return err
		}
		body := queryBody([]querySpec{ustarSpec(heavy, 2*i+1, g.r.sz.ustarIDs)})
		if err := g.serveSpan("server.ustar", g.t.op(), srv, body); err != nil {
			return err
		}
	}
	return nil
}

// ---- cluster-3node ----

func (g *rig) replayCluster() error {
	const burstFrames = 2
	cfg := engineConfig()
	var nodes []*engine.Engine
	var urls []string
	for i := 0; i < 3; i++ {
		eng, err := engine.New(cfg)
		if err != nil {
			return err
		}
		ts := httptest.NewServer(server.New(eng))
		defer ts.Close()
		nodes = append(nodes, eng)
		urls = append(urls, ts.URL)
	}
	// No background poll: the replay is the only caller of Sync.
	coord, err := cluster.New(cluster.Config{Nodes: urls, Engine: cfg})
	if err != nil {
		return err
	}
	defer coord.Close()
	srv := server.NewWith(coord.Engine(), server.Config{Snapshots: coord, Ingest: coord, Cluster: coord})
	defer srv.Drain()
	final, err := g.r.gen.final()
	if err != nil {
		return err
	}
	if err := coord.IngestBatch(g.ctx, finalUpdates(final)); err != nil {
		return err
	}
	if err := coord.Sync(g.ctx); err != nil {
		return err
	}

	ring := coord.Ring()
	g.t.call("cluster.ring_owner", 0, g.t.op(), float64(g.r.sz.universe), func() {
		for k := 0; k < g.r.sz.universe; k++ {
			sink += float64(ring.Owner(uint64(k)))
		}
	})

	union, err := engine.New(cfg)
	if err != nil {
		return err
	}
	frames := newFrames(burstFrames)
	dashBody := queryBody(dashSpecs)
	route := func() error {
		op := g.t.op()
		g.r.gen.fill(frames)
		for _, f := range frames {
			var rerr error
			g.t.call("cluster.route", 0, op, 1, func() { rerr = coord.IngestBatch(g.ctx, f) })
			if rerr != nil {
				return rerr
			}
		}
		return nil
	}
	for i := 0; i < 30; i++ {
		// Routed write, then the read layer by layer: sync the nodes'
		// states into the merge engine, rebuild, estimate.
		if err := route(); err != nil {
			return err
		}
		op := g.t.op()
		root := g.t.begin("op.dash", 0, op)
		var serr error
		g.t.call("cluster.sync", root, op, 1, func() { serr = coord.Sync(g.ctx) })
		if serr != nil {
			return serr
		}
		var view engine.SnapshotView
		g.t.call("engine.rebuild", root, op, 1, func() { view = coord.Engine().FreshView() })
		err := g.dashLayers(op, root, view)
		g.t.end(root, 0)
		if err != nil {
			return err
		}
		// The same through the coordinator's handler.
		if err := route(); err != nil {
			return err
		}
		if err := g.serveSpan("server.query_miss", g.t.op(), srv, dashBody); err != nil {
			return err
		}
		// The inside of a sync, one node's share: dump, encode, decode,
		// merge into an engine that already holds the previous state.
		if err := g.stateCodec(nodes[i%len(nodes)], union); err != nil {
			return err
		}
	}
	return nil
}
