package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/streamclient"
)

// Latency limits per request class: a slower answer counts as over the
// limit (gen.over_limit_share).
const (
	limitStaticDash  = 50 * time.Millisecond
	limitChurnDash   = 250 * time.Millisecond
	limitClusterDash = 500 * time.Millisecond
	limitStreamAck   = time.Second
	limitSel         = 250 * time.Millisecond
	limitUStar       = 5 * time.Second
)

// tailQuantile is the tail every workload reports beside its median: the
// highest percentile the slowest request classes (the churn and cluster
// dash, 5 a second) still leaves ten samples beyond in one run.
const tailQuantile = 0.90

// readPhase is how far the dash schedule trails the write schedule on the
// workloads that have both. The two intervals are commensurate, so without
// an offset a dash and a burst would be due at the same instant and race;
// with it every dash arrives just after a burst was acknowledged, sees a
// version no earlier read saw, and pays the whole miss.
const readPhase = 5 * time.Millisecond

// sizing is everything that differs between a full run and -smoke.
type sizing struct {
	universe int // key ids 0..universe-1, all preloaded
	pool     int // pooled random events the stream cycles through
	// rounds splits the measured seconds over that many freshly booted
	// systems. A monestd process keeps, for its whole life, a regime that
	// moves a sub-millisecond request by a quarter between one incarnation
	// and the next (measured, cause not found: README "Steadiness"); one
	// run therefore samples several incarnations and reports the median
	// set-up.
	rounds int
	// window is the measured time per round: run_seconds of BENCHMARK.json
	// ÷ rounds on a full run, fixed here for -smoke. slice is the part of
	// a window that gets a median of its own (see series); a window is a
	// whole number of slices.
	window        time.Duration
	slice         time.Duration
	warm          time.Duration // unrecorded lead-in of every load phase
	ingestFrames  int           // frames per durable-ingest stream
	tailStreams   int           // durable-ingest streams between checkpoint and SIGKILL
	recoveries    int           // SIGKILL + restart cycles per durable-ingest round
	selIDs        int           // ids per sel request
	ustarIDs      int           // ids per ustar request
	ustarRequests int           // ustar requests per round
}

var (
	fullSizing = sizing{
		universe: 65536, pool: 1 << 20, rounds: 5, slice: 2 * time.Second, warm: 500 * time.Millisecond,
		ingestFrames: 64, tailStreams: 64, recoveries: 2, selIDs: 64, ustarIDs: 4, ustarRequests: 40,
	}
	smokeSizing = sizing{
		universe: 2048, pool: 1 << 14, rounds: 1, window: time.Second, slice: 250 * time.Millisecond, warm: 100 * time.Millisecond,
		ingestFrames: 16, tailStreams: 8, recoveries: 1, selIDs: 64, ustarIDs: 1, ustarRequests: 4,
	}
)

// run is one workload execution against real daemons.
type run struct {
	ctx   context.Context
	sz    sizing
	seed  int64
	trace bool
	fleet *fleet
	api   *api
	rep   *report

	// Per round: the generator and its preload frames. Each round's system
	// starts empty, so each round has its own generator, seeded from the
	// run's seed and the round number.
	gen *gen
	pre [][]engine.Update

	// classes are the request classes whose samples are cut into slices;
	// primaries are the ones cpu_ms_per_primary divides by. cpuPer is the
	// daemons' CPU time per primary request, one value per slice.
	classes   []*series
	primaries []*series
	cpuPer    []float64

	setups  []float64 // set-up seconds, one per round
	rss     []float64 // peak resident megabytes of the daemons, one per round
	genTime time.Duration
	sent    int64
	tally   tally
}

// system is one booted deployment: the daemon clients talk to, every
// process in it, and its data directory if it has one.
type system struct {
	target  *daemon
	all     []*daemon
	dataDir string
}

func (r *run) dispose(s *system) {
	for _, d := range s.all {
		r.fleet.kill(d)
	}
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

// rounds runs one workload round per fresh system.
func (r *run) rounds(round func(n int) error) error {
	for n := 0; n < r.sz.rounds; n++ {
		start := time.Now()
		r.gen = newGen(r.seed*1000+int64(n), r.sz.universe, r.sz.pool)
		r.pre = r.gen.preload()
		r.genTime += time.Since(start)
		r.tally.hwmBytes = 0
		if err := round(n); err != nil {
			return fmt.Errorf("round %d: %w", n, err)
		}
		r.sent += r.gen.updatesSent()
		r.rss = append(r.rss, float64(r.tally.hwmBytes)/(1<<20))
	}
	r.rep.e2e("setup_s", median(r.setups), "s", len(r.setups))
	return nil
}

// setUp boots a system, loads the whole key universe and answers a first
// dash; the time this takes is one set-up sample (go build is not part of
// it: build_s is printed in the environment record).
func (r *run) setUp(boot func() (*system, error)) (*system, error) {
	start := time.Now()
	s, err := boot()
	if err != nil {
		return nil, err
	}
	if err := r.api.sendStream(r.ctx, s.target.base, r.pre); err != nil {
		r.dispose(s)
		return nil, fmt.Errorf("preload: %w", err)
	}
	if _, err := r.api.query(r.ctx, s.target.base, queryBody(dashSpecs)); err != nil {
		r.dispose(s)
		return nil, fmt.Errorf("first dash: %w", err)
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	return s, nil
}

func (r *run) singleNode(name string, extra ...string) func() (*system, error) {
	return func() (*system, error) {
		d, err := r.fleet.start(name, extra...)
		if err != nil {
			return nil, err
		}
		return &system{target: d, all: []*daemon{d}}, nil
	}
}

// phase is the timing of one load phase: loops start at start, record from
// record (the warm-up before it is sent but not counted) and stop at end.
type phase struct{ start, record, end time.Time }

func (r *run) newPhase(length time.Duration) phase {
	start := time.Now().Add(10 * time.Millisecond)
	return phase{start: start, record: start.Add(r.sz.warm), end: start.Add(r.sz.warm + length)}
}

// counters is one reading of a system's resource and layer counters.
type counters struct {
	use   usage
	stats stats
}

func (r *run) sample(s *system) (counters, error) {
	var c counters
	var err error
	if c.use, err = sumUsage(s.all); err != nil {
		return c, err
	}
	c.stats, err = r.api.stats(r.ctx, s.target.base)
	return c, err
}

// tally sums, over the rounds of a run, what the daemons did during the
// recorded part of their phases.
type tally struct {
	loops      loopStats
	hwmBytes   int64 // the current round's largest summed VmHWM
	writeBytes int64
	updates    float64 // acknowledged updates in the recorded windows

	rebuilds, partsRebuilt, partsReused, threshRefreshes, planRebuilds uint64
	versions                                                           uint64
	pushed, coalesced, dropped                                         uint64
	syncs, fetches, notModified, stateBytes, routed                    uint64
}

func (t *tally) window(before, after counters) {
	t.writeBytes += after.use.writeBytes - before.use.writeBytes
	t.hwmBytes = max(t.hwmBytes, after.use.hwmBytes)
	b, a := before.stats.Engine.Snapshot, after.stats.Engine.Snapshot
	t.rebuilds += a.Rebuilds - b.Rebuilds
	t.partsRebuilt += a.PartitionsRebuilt - b.PartitionsRebuilt
	t.partsReused += a.PartitionsReused - b.PartitionsReused
	t.threshRefreshes += a.ThresholdRefreshes - b.ThresholdRefreshes
	t.planRebuilds += a.PlanRebuilds - b.PlanRebuilds
	t.versions += after.stats.Version - before.stats.Version
	t.pushed += after.stats.Wire.PushedEvents - before.stats.Wire.PushedEvents
	t.coalesced += after.stats.Wire.CoalescedEvents - before.stats.Wire.CoalescedEvents
	t.dropped += after.stats.Wire.DroppedEvents - before.stats.Wire.DroppedEvents
	if bc, ac := before.stats.Cluster, after.stats.Cluster; bc != nil && ac != nil {
		t.syncs += ac.Stats.Syncs - bc.Stats.Syncs
		t.fetches += ac.Stats.Fetches - bc.Stats.Fetches
		t.notModified += ac.Stats.NotModified - bc.Stats.NotModified
		t.stateBytes += ac.Stats.StateBytes - bc.Stats.StateBytes
		t.routed += ac.Stats.RoutedUpdates - bc.Stats.RoutedUpdates
	}
}

// during runs the client loops of a phase concurrently, reads the
// counters at the phase's record and end instants, and books the window.
// A request that errs fails the run: workloads are chosen so none does.
func (r *run) during(s *system, ph phase, loops ...func() loopStats) (before, after counters, err error) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var total loopStats
	slices := int(ph.end.Sub(ph.record) / r.sz.slice)
	base := 0
	for _, c := range r.classes {
		base = c.begin(ph.record, r.sz.slice, slices)
	}
	// The daemons' CPU time at every slice boundary, read by a goroutine
	// that sleeps in between.
	cpuAt := make([]time.Duration, 0, slices+1)
	var cpuErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i <= slices && cpuErr == nil; i++ {
			time.Sleep(time.Until(ph.record.Add(time.Duration(i) * r.sz.slice)))
			var u usage
			u, cpuErr = sumUsage(s.all)
			cpuAt = append(cpuAt, u.cpu)
		}
	}()
	for _, loop := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := loop()
			mu.Lock()
			total.add(st)
			mu.Unlock()
		}()
	}
	time.Sleep(time.Until(ph.record))
	before, err = r.sample(s)
	wg.Wait()
	if err != nil {
		return
	}
	if err = r.fleet.checkAlive(); err != nil {
		return
	}
	if after, err = r.sample(s); err != nil {
		return
	}
	if total.firstErr != nil {
		err = fmt.Errorf("%d of %d requests failed; first: %w", total.failed, total.attempted, total.firstErr)
		return
	}
	if err = cpuErr; err != nil {
		return
	}
	for i := 0; i < slices; i++ {
		n := 0
		for _, p := range r.primaries {
			n += p.sliceCount(base + i)
		}
		if n >= minSliceSamples {
			r.cpuPer = append(r.cpuPer, ms(cpuAt[i+1]-cpuAt[i])/float64(n))
		}
	}
	r.tally.loops.add(total)
	r.tally.window(before, after)
	return
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// lateness reports the generator's own health for one open-loop class —
// gen.late_p90_ms is the worst class's — and flags a run whose sends fell
// more than one interval behind schedule. The quantile is the tail every
// class has the samples for: the slowest sends 100 requests a run.
func (r *run) lateness(class string, late *hist, interval time.Duration) {
	m := r.rep.pct("gen.late_p90_ms of the "+class, late, tailQuantile)
	if cur, ok := r.rep.layers["gen.late_p90_ms"]; !ok || m.Value > cur.Value {
		r.rep.layers["gen.late_p90_ms"] = m
	}
	if m.Value > ms(interval) {
		r.rep.flags = append(r.rep.flags, fmt.Sprintf("generator_saturated: %s sends ran %.2f ms late at p90, over the %v send interval", class, m.Value, interval))
	}
}

// finish reports what every workload shares: the primary request's
// latency, the resource metrics, the request totals and the layer counters
// the daemons expose.
//
// The bounded latency and CPU numbers are quiet-half numbers (see quiet):
// per slice the median latency, and the daemons' CPU time divided by the
// primaries that completed; over the slices of the run, the mean of the
// lower half. The pooled percentiles of the whole run are printed beside
// them as per-layer diagnostics: they carry the host's noise.
func (r *run) finish(primary *series) {
	t := &r.tally
	r.rep.attempted, r.rep.failed, r.rep.overLimit = t.loops.attempted, t.loops.failed, t.loops.overLimit
	r.rep.quiet("primary_p50_ms", primary)
	r.rep.e2e("cpu_ms_per_primary", quiet(r.cpuPer), "ms", len(r.cpuPer))
	r.rep.e2e("daemon_rss_mb", median(r.rss), "MB", len(r.rss))
	r.rep.layerQuantile("e2e.primary_pooled_p50_ms", &primary.hist, 0.5)
	r.rep.layerQuantile("e2e.primary_pooled_p90_ms", &primary.hist, tailQuantile)
	r.rep.layer("gen.over_limit_share", ratio(float64(t.loops.overLimit), float64(t.loops.attempted)), "share", t.loops.attempted)

	rebuilt, reused := float64(t.partsRebuilt), float64(t.partsReused)
	r.rep.layer("engine.rebuilds", float64(t.rebuilds), "count", 0)
	r.rep.layer("engine.partitions_rebuilt_share", ratio(rebuilt, rebuilt+reused), "share", 0)
	r.rep.layer("engine.threshold_refresh_share", ratio(float64(t.threshRefreshes), float64(t.rebuilds)), "share", 0)
	r.rep.layer("engine.plan_rebuilds", float64(t.planRebuilds), "count", 0)
	r.rep.layer("engine.mutating_share", ratio(float64(t.versions), t.updates), "share", 0)
	r.rep.layer("server.pushed_events", float64(t.pushed), "count", 0)
	r.rep.layer("server.coalesced_events", float64(t.coalesced), "count", 0)
	r.rep.layer("server.dropped_events", float64(t.dropped), "count", 0)
	r.rep.layer("cluster.syncs", float64(t.syncs), "count", 0)
	r.rep.layer("cluster.not_modified_share", ratio(float64(t.notModified), float64(t.notModified+t.fetches)), "share", 0)
	r.rep.layer("cluster.state_bytes_per_sync", ratio(float64(t.stateBytes), float64(t.syncs)), "bytes", 0)
	r.rep.layer("cluster.routed_updates", float64(t.routed), "count", 0)
}

// verify is the correctness gate of a quiesced system: the dash, one sel
// per estimator and any extra request must equal the oracle bit for bit,
// as must the export artifact of a single node.
func (r *run) verify(base string, export bool, extra ...querySpec) error {
	or, err := newOracle(r.gen)
	if err != nil {
		return err
	}
	specs := append([]querySpec(nil), dashSpecs...)
	for i, est := range selEstimators {
		specs = append(specs, selSpec(r.gen.heavy(heavyKeys), i, r.sz.selIDs, est))
	}
	specs = append(specs, extra...)
	if _, err := or.checkQueries(r.ctx, r.api, base, specs); err != nil {
		return err
	}
	if export {
		if err := or.checkExport(r.ctx, r.api, base); err != nil {
			return err
		}
	}
	r.rep.layer("dataset.sample_bottomk_ms", ms(or.batchTime), "ms", 1)
	return nil
}

// ---- durable-ingest ----

// durableIngest: one durable node under closed-loop write load from one
// connection, then a checkpoint and, several times, a fixed tail of
// updates, SIGKILL and recovery. store (WAL append, flusher, checkpoint,
// replay) and the engine fold do nearly all the work; estimators, snapshot
// reduction and cluster do none. The fixed tail makes the recovery work
// identical on every run.
func (r *run) durableIngest() error {
	dataRoot := filepath.Join(r.fleet.outDir, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(dataRoot)
	streamUpdates := r.sz.ingestFrames * frameUpdates
	var ack series
	r.classes, r.primaries = []*series{&ack}, []*series{&ack}
	var acked atomic.Int64
	var recoveries []float64
	var checkpoints uint64

	err := r.rounds(func(n int) error {
		dir := filepath.Join(dataRoot, fmt.Sprintf("round-%d", n))
		// Under load the daemon checkpoints every 3 s: stream acks slow by
		// two thirds once a WAL segment passes a few hundred megabytes
		// (README "Sizing probes"), and a checkpoint rotates the segment, so
		// every slice is measured in the same state. The daemons of the
		// recovery cycles never checkpoint on a timer, so that nothing but
		// the fixed tail is between their checkpoint and their SIGKILL.
		args := []string{"-data-dir", dir, "-fsync", "interval", "-checkpoint-interval", "3s"}
		recoverArgs := []string{"-data-dir", dir, "-fsync", "interval", "-checkpoint-interval", "1h"}
		boot := func() (*system, error) {
			d, err := r.fleet.start("durable-ingest-node", args...)
			if err != nil {
				return nil, err
			}
			return &system{target: d, all: []*daemon{d}, dataDir: dir}, nil
		}
		sys, err := r.setUp(boot)
		if err != nil {
			return err
		}
		defer func() { r.dispose(sys) }()
		node := sys.target

		// Closed loop, one connection: the writer opens a stream, sends its
		// frames, closes, and waits for the ack before the next. One writer
		// and the daemon's handler are the two busy threads the two cores
		// have room for; the ack time is then the service time of a stream,
		// not a place in the run queue.
		ph := r.newPhase(r.sz.window)
		frames := newFrames(r.sz.ingestFrames)
		writer := func() loopStats {
			return closedLoop(r.ctx, ph.record, ph.end, limitStreamAck, &ack,
				func(int) { r.gen.fill(frames) },
				func(int) error {
					begin := time.Now()
					err := r.api.sendStream(r.ctx, node.base, frames)
					if err == nil && !begin.Before(ph.record) {
						acked.Add(int64(streamUpdates))
					}
					return err
				})
		}
		if _, _, err := r.during(sys, ph, writer); err != nil {
			return err
		}

		// Checkpoint, and hand the directory to a daemon without a timer.
		raw, err := r.api.do(r.ctx, http.MethodPost, node.base+"/v1/checkpoint", []byte("{}"))
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		var ck struct {
			Checkpoint struct {
				Seq uint64 `json:"seq"`
			} `json:"checkpoint"`
		}
		if err := json.Unmarshal(raw, &ck); err != nil {
			return fmt.Errorf("checkpoint response: %w", err)
		}
		// A store's first WAL segment is 1 and every checkpoint opens the
		// next, so seq-1 counts the checkpoints of this boot, periodic
		// ones included.
		checkpoints += ck.Checkpoint.Seq - 1
		// restart SIGKILLs the daemon and boots another on its directory;
		// it returns the time from process start to /readyz 200.
		restart := func() (time.Duration, error) {
			r.fleet.kill(node)
			r.api.close()
			sys.all = nil
			start := time.Now()
			d, err := r.fleet.start("durable-ingest-node", recoverArgs...)
			if err != nil {
				return 0, err
			}
			node, sys.target, sys.all = d, d, []*daemon{d}
			return time.Since(start), nil
		}
		if _, err := restart(); err != nil {
			return fmt.Errorf("restart after checkpoint: %w", err)
		}

		// Crash and recover, several times: each cycle sends the fixed
		// tail, SIGKILLs the daemon and restarts it on the same directory.
		// Every acknowledged update reached the WAL file before its ack,
		// so SIGKILL loses nothing (the page cache survives a process
		// kill: README "known limits"). Recovery is timed from process
		// start to /readyz 200. A daemon that replayed anything checkpoints
		// at once, so the next cycle's replay is its own tail and no more.
		for c := 0; c < r.sz.recoveries; c++ {
			for i := 0; i < r.sz.tailStreams; i++ {
				r.gen.fill(frames)
				if err := r.api.sendStream(r.ctx, node.base, frames); err != nil {
					return fmt.Errorf("post-checkpoint tail: %w", err)
				}
			}
			peak, err := node.usage()
			if err != nil {
				return err
			}
			took, err := restart()
			if err != nil {
				return fmt.Errorf("restart after SIGKILL: %w", err)
			}
			recoveries = append(recoveries, ms(took))
			recovered, err := node.usage()
			if err != nil {
				return err
			}
			r.tally.hwmBytes = max(r.tally.hwmBytes, peak.hwmBytes, recovered.hwmBytes)
		}
		return r.verify(node.base, true)
	})
	if err != nil {
		return err
	}

	r.tally.updates = float64(acked.Load())
	r.finish(&ack)
	r.rep.e2e("secondary_p50_ms", quiet(recoveries), "ms", len(recoveries))
	// Throughput is the median slice's, which a single stall cannot drag.
	streams := ack.sliceCounts()
	r.rep.layer("e2e.ingest_updates_per_s", median(streams)*float64(streamUpdates)/r.sz.slice.Seconds(), "1/s", len(streams))
	r.rep.layerQuantile("e2e.stream_ack_p99_ms", &ack.hist, 0.99)
	r.rep.layer("store.disk_bytes_per_update", ratio(float64(r.tally.writeBytes), r.tally.updates), "bytes", 0)
	r.rep.layer("store.checkpoints", float64(checkpoints), "count", 0)
	return nil
}

// ---- query-churn ----

// pushSeen is one SSE estimate event as the subscriber received it.
type pushSeen struct {
	version uint64
	at      time.Time
	results []json.RawMessage
}

// queryChurn: one in-memory node where every read sees a new version: a
// writer sends a 4-frame stream every 100 ms, a client polls the dash at
// 5 qps, and an SSE subscriber receives the debounced pushes. The
// engine's cut, reduce and merge plan and the L* evaluation dominate;
// store and cluster are bypassed.
func (r *run) queryChurn() error {
	const (
		burstFrames   = 4
		writeInterval = 100 * time.Millisecond
		dashInterval  = 200 * time.Millisecond
	)
	var dash, burstLat, lag series
	var ackLat, lateW, lateQ hist
	r.classes, r.primaries = []*series{&dash, &burstLat, &lag}, []*series{&dash}
	skipped, bursts := 0, 0
	dashBody := queryBody(dashSpecs)

	err := r.rounds(func(int) error {
		sys, err := r.setUp(r.singleNode("query-churn-node", "-subscribe-debounce", "10ms"))
		if err != nil {
			return err
		}
		defer r.dispose(sys)
		node := sys.target

		// The subscriber is receive-only and holds its own connection.
		sub, err := streamclient.Subscribe(r.ctx, &http.Client{}, node.base, subscribeQuery)
		if err != nil {
			return err
		}
		var pushMu sync.Mutex
		var pushes []pushSeen
		subDone := make(chan struct{})
		go func() {
			defer close(subDone)
			for {
				p, err := sub.NextPush()
				if err != nil {
					return // closed by us at the end, or the daemon went away
				}
				pushMu.Lock()
				pushes = append(pushes, pushSeen{p.Version, time.Now(), p.Results})
				pushMu.Unlock()
			}
		}()
		defer func() {
			sub.Close()
			<-subDone
		}()

		type burst struct {
			due     time.Time
			version uint64 // the daemon's version once the burst was acknowledged
		}
		ph := r.newPhase(r.sz.window)
		var sent []burst // appended by the writer loop only, read after it ends
		frames := newFrames(burstFrames)
		writer := func() loopStats {
			return openLoop(r.ctx, ph.start, ph.record, ph.end, writeInterval, limitStreamAck, &burstLat, &lateW, func(_ int, due time.Time) error {
				r.gen.fill(frames)
				if err := r.api.sendStream(r.ctx, node.base, frames); err != nil {
					return err
				}
				acked := time.Now()
				st, err := r.api.stats(r.ctx, node.base)
				if err != nil {
					return err
				}
				if !due.Before(ph.record) {
					ackLat.record(acked.Sub(due))
					sent = append(sent, burst{due, st.Version})
				}
				return nil
			})
		}
		reader := func() loopStats {
			return openLoop(r.ctx, ph.start.Add(readPhase), ph.record, ph.end, dashInterval, limitChurnDash, &dash, &lateQ, func(int, time.Time) error {
				_, err := r.api.query(r.ctx, node.base, dashBody)
				return err
			})
		}
		before, _, err := r.during(sys, ph, writer, reader)
		if err != nil {
			return err
		}

		// Quiesce: the oracle's numbers, and the last push at the final
		// version carrying what /v1/query answers there.
		if err := r.verify(node.base, true); err != nil {
			return err
		}
		final, err := r.api.stats(r.ctx, node.base)
		if err != nil {
			return err
		}
		last, err := awaitPush(r.ctx, &pushMu, &pushes, final.Version)
		if err != nil {
			return err
		}
		if err := r.pushEqualsQuery(node.base, last); err != nil {
			return err
		}

		// Push lag: creation (due time) of a burst's last frame → receipt
		// of the first push at or past the version that burst produced.
		// A burst that did not move the version cannot be seen in a push
		// and is skipped (and counted).
		pi, prev := 0, before.stats.Version
		pushMu.Lock()
		defer pushMu.Unlock()
		for _, b := range sent {
			bursts++
			if b.version == prev {
				skipped++
				continue
			}
			prev = b.version
			for pi < len(pushes) && pushes[pi].version < b.version {
				pi++
			}
			if pi == len(pushes) {
				break
			}
			lag.recordAt(pushes[pi].at, pushes[pi].at.Sub(b.due))
		}
		return nil
	})
	if err != nil {
		return err
	}

	if float64(r.tally.rebuilds) < 0.9*float64(dash.n()) {
		return fmt.Errorf("query-churn is misconfigured: %d rebuilds for %d dash queries (want ≥ 0.9×): reads are not seeing new versions", r.tally.rebuilds, dash.n())
	}
	r.tally.updates = float64(ackLat.n() * burstFrames * frameUpdates)
	r.finish(&dash)
	r.rep.quiet("secondary_p50_ms", &lag)
	r.rep.layerQuantile("e2e.push_lag_p90_ms", &lag.hist, tailQuantile)
	r.rep.layer("e2e.push_bursts_skipped", float64(skipped), "count", bursts)
	r.lateness("query-churn writer", &lateW, writeInterval)
	r.lateness("query-churn dash", &lateQ, dashInterval)
	return nil
}

// awaitPush waits until the subscriber holds a push at version ≥ want and
// returns the newest one.
func awaitPush(ctx context.Context, mu *sync.Mutex, pushes *[]pushSeen, want uint64) (pushSeen, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(*pushes)
		var last pushSeen
		if n > 0 {
			last = (*pushes)[n-1]
		}
		mu.Unlock()
		if n > 0 && last.version >= want {
			return last, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return pushSeen{}, fmt.Errorf("no push reached version %d (last seen %d after %d pushes)", want, last.version, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pushEqualsQuery demands that a push carries exactly what POST /v1/query
// answers for the subscribed query at the same version.
func (r *run) pushEqualsQuery(base string, p pushSeen) error {
	raw, err := r.api.query(r.ctx, base, queryBody(dashSpecs[:1]))
	if err != nil {
		return err
	}
	var qr struct {
		Version uint64            `json:"version"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(raw, &qr); err != nil {
		return err
	}
	if qr.Version != p.version {
		return fmt.Errorf("push is at version %d, /v1/query answered %d on a quiesced daemon", p.version, qr.Version)
	}
	if len(p.results) != 1 || len(qr.Results) != 1 {
		return fmt.Errorf("push has %d results, query %d (want 1 each)", len(p.results), len(qr.Results))
	}
	var a, b any
	if err := json.Unmarshal(p.results[0], &a); err != nil {
		return err
	}
	if err := json.Unmarshal(qr.Results[0], &b); err != nil {
		return err
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("push at version %d differs from /v1/query: %s vs %s", p.version, p.results[0], qr.Results[0])
	}
	return nil
}

// ---- query-static ----

// queryStatic: one in-memory node, no writes. Phase A (open loop) sends
// the dash at 500 qps — per-version memo hits — and sel requests at 50 qps
// — memo misses against an unchanged snapshot. Phase B (closed loop, one
// client, a fixed list of requests) sends ustar requests. The same server query path as query-churn
// used the other way: reads without invalidation, so a rebuild speed-up
// paid for on the cache-hit path shows here, and estimator evaluation is
// isolated from the engine's reduce. The phases keep a 30 ms U*
// evaluation from polluting dash tails on two cores.
func (r *run) queryStatic() error {
	const (
		dashInterval = 2 * time.Millisecond
		selInterval  = 20 * time.Millisecond
	)
	var dash, sel series
	var lateD, lateS hist
	var ustar []float64 // every ustar request of the run, ms
	r.classes, r.primaries = []*series{&dash, &sel}, []*series{&dash, &sel}
	dashBody := queryBody(dashSpecs)

	err := r.rounds(func(int) error {
		sys, err := r.setUp(r.singleNode("query-static-node"))
		if err != nil {
			return err
		}
		defer r.dispose(sys)
		node := sys.target
		heavy := r.gen.heavy(heavyKeys)

		phA := r.newPhase(r.sz.window)
		dashLoop := func() loopStats {
			return openLoop(r.ctx, phA.start, phA.record, phA.end, dashInterval, limitStaticDash, &dash, &lateD, func(int, time.Time) error {
				_, err := r.api.query(r.ctx, node.base, dashBody)
				return err
			})
		}
		selLoop := func() loopStats {
			return openLoop(r.ctx, phA.start, phA.record, phA.end, selInterval, limitSel, &sel, &lateS, func(i int, _ time.Time) error {
				spec := selSpec(heavy, i, r.sz.selIDs, selEstimators[i%len(selEstimators)])
				_, err := r.api.query(r.ctx, node.base, queryBody([]querySpec{spec}))
				return err
			})
		}
		before, after, err := r.during(sys, phA, dashLoop, selLoop)
		if err != nil {
			return err
		}

		// Phase B: U* is orders of magnitude dearer per item than L* and
		// its cost swings with the item, so it gets its own closed loop
		// over a FIXED list of requests. A timed loop would let a round
		// whose items happen to be cheap flood the pooled sample.
		for i := 0; i < r.sz.ustarRequests && r.ctx.Err() == nil; i++ {
			begin := time.Now()
			_, err := r.api.query(r.ctx, node.base, queryBody([]querySpec{ustarSpec(heavy, i, r.sz.ustarIDs)}))
			if err != nil {
				return fmt.Errorf("ustar request %d: %w", i, err)
			}
			took := time.Since(begin)
			ustar = append(ustar, ms(took))
			r.tally.loops.count(nil, took, limitUStar)
		}
		after, err = r.sample(sys)
		if err != nil {
			return err
		}
		// Phase B's CPU is not part of the capacity proxy; its memory is
		// part of the peak.
		r.tally.hwmBytes = max(r.tally.hwmBytes, after.use.hwmBytes)
		if n := after.stats.Engine.Snapshot.Rebuilds - before.stats.Engine.Snapshot.Rebuilds; n != 0 {
			return fmt.Errorf("query-static is misconfigured: %d snapshot rebuilds after warm-up on a node nobody writes to", n)
		}
		// The ustar request checked is one the loop did not send, so the
		// daemon evaluates it rather than replaying its memo.
		return r.verify(node.base, true, ustarSpec(heavy, r.sz.ustarRequests, r.sz.ustarIDs))
	})
	if err != nil {
		return err
	}

	// The capacity proxy is phase A's: CPU per dash or sel request.
	r.finish(&dash)
	r.rep.e2e("secondary_p50_ms", median(ustar), "ms", len(ustar))
	r.rep.layerQuantile("e2e.query_p99_ms", &dash.hist, 0.99)
	r.rep.layerQuantile("e2e.sel_query_p50_ms", &sel.hist, 0.5)
	r.lateness("query-static dash", &lateD, dashInterval)
	r.lateness("query-static sel", &lateS, selInterval)
	return nil
}

// ---- cluster-3node ----

// cluster3node: three in-memory nodes behind a strict-read coordinator,
// all traffic through the coordinator: a 10-frame routed stream every
// 200 ms and, 20 ms behind it, the dash at 5 qps (a dash is over before
// the next stream is due, as on query-churn). The ring split and forward,
// and the sync (fetch, store.DecodeState, engine.MergeState) carry the
// cost; store durability is bypassed. Degraded and fault-profile scenarios
// are left out on purpose: they time breaker and timeout settings, not
// program work.
func (r *run) cluster3node() error {
	const (
		burstFrames   = 10
		writeInterval = 200 * time.Millisecond
		dashInterval  = 200 * time.Millisecond
		dashPhase     = 20 * time.Millisecond
	)
	var dash, ack series
	var lateW, lateQ hist
	r.classes, r.primaries = []*series{&dash, &ack}, []*series{&dash}
	dashBody := queryBody(dashSpecs)

	err := r.rounds(func(int) error {
		sys, err := r.setUp(func() (*system, error) {
			s := &system{}
			var urls []string
			for i := 1; i <= 3; i++ {
				d, err := r.fleet.start(fmt.Sprintf("cluster-3node-node%d", i))
				if err != nil {
					r.dispose(s)
					return nil, err
				}
				s.all = append(s.all, d)
				urls = append(urls, d.base)
			}
			co, err := r.fleet.start("cluster-3node-coordinator", "-cluster", strings.Join(urls, ","), "-cluster-read", "strict")
			if err != nil {
				r.dispose(s)
				return nil, err
			}
			s.all = append(s.all, co)
			s.target = co
			return s, nil
		})
		if err != nil {
			return err
		}
		defer r.dispose(sys)
		co := sys.target

		ph := r.newPhase(r.sz.window)
		frames := newFrames(burstFrames)
		writer := func() loopStats {
			return openLoop(r.ctx, ph.start, ph.record, ph.end, writeInterval, limitStreamAck, &ack, &lateW, func(int, time.Time) error {
				r.gen.fill(frames)
				return r.api.sendStream(r.ctx, co.base, frames)
			})
		}
		reader := func() loopStats {
			return openLoop(r.ctx, ph.start.Add(dashPhase), ph.record, ph.end, dashInterval, limitClusterDash, &dash, &lateQ, func(int, time.Time) error {
				_, err := r.api.query(r.ctx, co.base, dashBody)
				return err
			})
		}
		if _, _, err := r.during(sys, ph, writer, reader); err != nil {
			return err
		}
		// The coordinator must answer what one engine fed the union stream
		// would. Its export is the merge engine's, not a node's, so only
		// the query results are compared.
		return r.verify(co.base, false)
	})
	if err != nil {
		return err
	}

	r.tally.updates = float64(ack.n() * burstFrames * frameUpdates)
	r.finish(&dash)
	r.rep.quiet("secondary_p50_ms", &ack)
	r.lateness("cluster-3node writer", &lateW, writeInterval)
	r.lateness("cluster-3node dash", &lateQ, dashInterval)
	return nil
}
