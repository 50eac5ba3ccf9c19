// Command monestd serves monotone-sampling estimates from live streaming
// sketches: a daemon wrapping internal/engine (sharded coordinated
// bottom-k store) with the internal/server JSON API and, when -data-dir
// is set, the internal/store durability layer (write-ahead log + sketch
// checkpoints + crash recovery).
//
// Usage:
//
//	monestd [-addr :8080] [-instances 2] [-k 64] [-shards 16] [-salt 1]
//	        [-default-estimator lstar] [-estimators lstar,ustar,ht,...]
//	        [-subscribe-debounce 100ms]
//	        [-data-dir DIR] [-fsync always|interval|never]
//	        [-checkpoint-interval 1m] [-pprof]
//	        [-cluster url1,url2] [-cluster-read strict|partial|quorum=N]
//	        [-ingest-rate 0] [-ingest-burst 0] [-ingest-inflight 0]
//
// -default-estimator names the registry estimator used when a request
// does not name one; -estimators is an optional comma-separated allowlist
// of registry base names (empty = every registered estimator servable).
// Every read is served from an exact cut, which costs nothing when no
// ingest intervened, thanks to the engine's versioned snapshot cache.
//
// Streaming wire: POST /v1/stream accepts binary update frames (the
// bytes the WAL journals, behind an 8-byte magic) over one chunked
// connection, and GET /v1/subscribe pushes re-estimates as Server-Sent
// Events whenever the sketch state changes. A write burst is one push,
// sent once the last open write request ends; -subscribe-debounce is the
// longest a push waits behind a write still open and the shortest
// spacing between pushes. On graceful shutdown
// subscribers receive a final "drain" event before the listener closes.
//
// Durability: -data-dir points at a state directory; on boot the daemon
// recovers the latest checkpoint plus the WAL tail, and every accepted
// ingest is then journaled ahead of being applied (a failed append
// answers a retryable 500, not a 400). -fsync picks the WAL flush
// policy (always = durable per batch; interval = background flush;
// never = leave it to the OS). The daemon checkpoints whenever the WAL
// journaled since the last checkpoint passes the store's budget, so a
// crash replays about one budget; the store leaves the key registry out
// of four in five checkpoints while it has not grown, which bounds the
// data directory. -checkpoint-interval adds checkpoints on a timer (0
// disables the timer only; /v1/checkpoint writes one on demand); a final
// checkpoint is always written on graceful shutdown.
// Without -data-dir the daemon is in-memory only, as before.
//
// Cluster mode: -cluster=url1,url2,... turns the process into a
// coordinator over N monestd nodes sharing the same -salt/-instances/-k.
// Reads scatter-gather each node's global bottom-(k+1) per instance (GET
// /v1/export?since=<cursor>, the key registry only when it grew;
// unchanged nodes answer 304 and transfer nothing), fold them losslessly
// into a local merge engine, and serve the full /v1/query//v1/subscribe
// surface from the merged snapshot, bit-identical to a single node fed
// the union stream. Writes
// to the coordinator's /v1/ingest and /v1/stream forward synchronously to
// the consistent-hash ring owners. -cluster-read picks the read policy
// for member-node failures: strict (the default) answers 503 when any
// node is unreachable instead of silently under-counting; partial serves
// the merged view of whatever nodes answered; quorum=<n> serves when at
// least n nodes answered. Under partial/quorum, every snapshot-backed
// response carries a "degraded" block naming the missing nodes and how
// stale their last-merged contribution is — estimates stay well-defined
// lower bounds over the reachable subset. Dead nodes are cheap: node
// requests retry with capped exponential backoff + full jitter behind a
// per-node circuit breaker, so an unreachable node short-circuits
// instead of costing a timeout per sync. -cluster-poll keeps
// subscriptions live without query traffic; -data-dir is rejected (nodes
// own durability — the coordinator rebuilds from them on the next sync).
//
// Backpressure: -ingest-rate caps each client IP's sustained ingest
// throughput in updates/sec (-ingest-burst sets the bucket size) and
// -ingest-inflight bounds concurrent ingest requests + open streams.
// Refused work answers a structured 429 with Retry-After; a refused
// stream frame reports applied progress so clients resume exactly.
//
// GET /healthz is liveness (process up — always 200); GET /readyz is
// readiness (coordinator: the read policy is currently satisfiable;
// node: store attached and recovery complete before the listener opens;
// a node that replayed a WAL tail checkpoints it after the listener
// opens, beside serving).
//
// -pprof mounts net/http/pprof under /debug/pprof/ on the same listener.
//
// Example session:
//
//	monestd -addr :8080 -instances 2 -k 256 -data-dir /var/lib/monestd &
//	curl -X POST localhost:8080/v1/ingest -d \
//	  '{"updates":[{"instance":0,"key":"alpha","weight":0.9}]}'
//	curl -X POST localhost:8080/v1/query -d \
//	  '{"queries":[{"func":"rg","p":1,"estimator":"lstar"}]}'
//	curl -X POST localhost:8080/v1/checkpoint
//	curl -o sketch.bin localhost:8080/v1/export
//	curl localhost:8080/metrics
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// drain, the WAL is flushed, and a final checkpoint is written so the
// next boot replays nothing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/estreg"
	"repro/internal/funcs"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/store"
)

// options carries every flag; run takes it whole so tests drive the full
// daemon without a command line.
type options struct {
	addr       string
	instances  int
	k          int
	shards     int
	salt       uint64
	defaultEst string
	allow      string

	subDebounce time.Duration

	dataDir      string
	fsync        string
	checkpointIv time.Duration
	pprof        bool

	cluster        string
	clusterTimeout time.Duration
	clusterPoll    time.Duration
	clusterRead    string

	ingestRate     float64
	ingestBurst    float64
	ingestInflight int
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.instances, "instances", 2, "number of coordinated instances")
	flag.IntVar(&o.k, "k", 64, "bottom-k sketch size per instance")
	flag.IntVar(&o.shards, "shards", 16, "lock-striped shard count")
	flag.Uint64Var(&o.salt, "salt", 1, "seed-hash salt (writers sharing it stay coordinated)")
	flag.StringVar(&o.defaultEst, "default-estimator", "lstar", "registry estimator used when a request names none")
	flag.StringVar(&o.allow, "estimators", "", "comma-separated allowlist of estimator base names (empty = all registered)")
	flag.DurationVar(&o.subDebounce, "subscribe-debounce", 100*time.Millisecond, "longest a /v1/subscribe push waits behind an open write, and shortest spacing between pushes")
	flag.StringVar(&o.dataDir, "data-dir", "", "state directory (empty = in-memory only)")
	flag.StringVar(&o.fsync, "fsync", "interval", "WAL flush policy: always, interval, never")
	flag.DurationVar(&o.checkpointIv, "checkpoint-interval", time.Minute, "period of checkpoints (0 = none on a timer; WAL volume, /v1/checkpoint and shutdown still checkpoint)")
	flag.BoolVar(&o.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/")
	flag.StringVar(&o.cluster, "cluster", "", "comma-separated node base URLs; when set, serve as cluster coordinator")
	flag.DurationVar(&o.clusterTimeout, "cluster-timeout", 2*time.Second, "per-node request timeout in cluster mode")
	flag.DurationVar(&o.clusterPoll, "cluster-poll", 200*time.Millisecond, "background node-sync period driving /v1/subscribe pushes (0 = query-driven only)")
	flag.StringVar(&o.clusterRead, "cluster-read", "strict", "cluster read policy: strict, partial, or quorum=<n>")
	flag.Float64Var(&o.ingestRate, "ingest-rate", 0, "per-client ingest rate limit in updates/sec (0 = unlimited)")
	flag.Float64Var(&o.ingestBurst, "ingest-burst", 0, "token-bucket burst for -ingest-rate (0 = same as rate)")
	flag.IntVar(&o.ingestInflight, "ingest-inflight", 0, "max concurrent ingest requests + open streams (0 = unlimited)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "monestd:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	// Every numeric flag is nonnegative and finite (durations in seconds):
	// downstream a negative value would silently read as "off" or a
	// default, and a NaN or infinite rate would reach the token bucket.
	for _, f := range []struct {
		flag string
		v    float64
	}{
		{"checkpoint-interval", o.checkpointIv.Seconds()}, {"subscribe-debounce", o.subDebounce.Seconds()},
		{"cluster-timeout", o.clusterTimeout.Seconds()}, {"cluster-poll", o.clusterPoll.Seconds()},
		{"ingest-rate", o.ingestRate}, {"ingest-burst", o.ingestBurst},
		{"ingest-inflight", float64(o.ingestInflight)},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("-%s %g must be finite and nonnegative", f.flag, f.v)
		}
	}
	fsyncPolicy, err := store.ParseFsyncPolicy(o.fsync)
	if err != nil {
		return err
	}
	engCfg := engine.Config{
		Instances: o.instances,
		K:         o.k,
		Shards:    o.shards,
		Hash:      sampling.NewSeedHash(o.salt),
	}

	// Cluster mode: this process becomes a coordinator — the engine it
	// serves is the coordinator's merge engine, reads scatter-gather the
	// member nodes' binary sketches, and ingest routes to ring owners. The
	// coordinator is deliberately stateless (its contents rebuild from the
	// nodes on the next sync), so -data-dir belongs on the nodes, not here.
	readPolicy, err := cluster.ParseReadPolicy(o.clusterRead)
	if err != nil {
		return fmt.Errorf("-cluster-read: %w", err)
	}
	if readPolicy.Mode != cluster.ReadStrict && o.cluster == "" {
		return fmt.Errorf("-cluster-read %s requires -cluster (a single node has no partial view to serve)", readPolicy)
	}
	var coord *cluster.Coordinator
	if o.cluster != "" {
		if o.dataDir != "" {
			return errors.New("-data-dir cannot be combined with -cluster (durability lives on the nodes; the coordinator rebuilds from them)")
		}
		var nodes []string
		for _, n := range strings.Split(o.cluster, ",") {
			if n = strings.TrimSpace(n); n != "" {
				nodes = append(nodes, strings.TrimSuffix(n, "/"))
			}
		}
		coord, err = cluster.New(cluster.Config{
			Nodes:      nodes,
			Engine:     engCfg,
			Timeout:    o.clusterTimeout,
			Poll:       o.clusterPoll,
			ReadPolicy: readPolicy,
		})
		if err != nil {
			return err
		}
		defer coord.Close()
	}

	var eng *engine.Engine
	if coord != nil {
		eng = coord.Engine()
	} else if eng, err = engine.New(engCfg); err != nil {
		return err
	}
	reg := estreg.Default()
	if o.allow != "" {
		var names []string
		for _, n := range strings.Split(o.allow, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			// A blank-but-set allowlist is an operator mistake; clearing
			// the restriction here would serve everything they meant to
			// lock down.
			return fmt.Errorf("-estimators %q names no estimators", o.allow)
		}
		if err := reg.Allow(names); err != nil {
			return err
		}
	}
	// Fail at startup, not per request, when the default estimator does
	// not resolve (rg is arity-0, so it probes any instance count).
	probe, err := funcs.NewRG(1)
	if err != nil {
		return err
	}
	if _, _, err := reg.Build(o.defaultEst, probe, o.instances); err != nil {
		return fmt.Errorf("default estimator: %w", err)
	}
	logger := log.New(os.Stderr, "monestd: ", log.LstdFlags)

	// Durability: recover before the listener exists (the engine must not
	// see traffic until the journal is attached), then compact a replayed
	// tail and checkpoint on WAL volume and a timer beside serving, and
	// finally on shutdown.
	var persist *store.Persistence
	replayed := 0 // WAL records the recovery replayed
	if o.dataDir != "" {
		st, err := store.Open(o.dataDir, store.Options{Fsync: fsyncPolicy})
		if err != nil {
			return err
		}
		began := time.Now()
		p, rec, err := store.Attach(eng, st)
		if err != nil {
			st.Close()
			return fmt.Errorf("recovering %s: %w", o.dataDir, err)
		}
		persist = p
		msg := fmt.Sprintf("recovered %s in %v: checkpoint seq=%d version=%d, replayed %d records (%d updates)",
			o.dataDir, time.Since(began).Round(time.Microsecond), rec.CheckpointSeq, rec.CheckpointVersion, rec.Records, rec.Updates)
		if rec.Truncated {
			msg += ", WAL truncated at first corrupt record"
		}
		if rec.CheckpointBase != 0 {
			msg += fmt.Sprintf(", sketch-only on base %d", rec.CheckpointBase)
		}
		if rec.CheckpointsSkipped > 0 {
			msg += fmt.Sprintf(", %d corrupt checkpoint(s) skipped", rec.CheckpointsSkipped)
		}
		logger.Print(msg)
		replayed = rec.Records
	}

	srvCfg := server.Config{
		Registry:          reg,
		DefaultEstimator:  o.defaultEst,
		Persist:           persist,
		SubscribeDebounce: o.subDebounce,
		IngestRate:        o.ingestRate,
		IngestBurst:       o.ingestBurst,
		IngestInflight:    o.ingestInflight,
	}
	if coord != nil {
		// The coordinator is the snapshot source, so /readyz answers 200
		// exactly while a scatter-gather round meets the read-policy floor.
		srvCfg.Snapshots = coord
		srvCfg.Ingest = coord
		srvCfg.Cluster = coord
	}
	api := server.NewWith(eng, srvCfg)
	var handler http.Handler = api
	if o.pprof {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{
		Addr:              o.addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if persist != nil {
		// One goroutine takes every checkpoint the daemon starts itself:
		// first a replayed tail's, so the next boot does not replay it
		// again, then the timer's and the WAL budget's, all beside
		// serving; the store picks each one's kind. Until one lands its
		// tail stays in the WAL, and replaying it twice is idempotent. One
		// that loses the race to shutdown loses nothing: Close writes the
		// final checkpoint.
		checkpoint := func(why string) {
			began := time.Now()
			cs, err := persist.Checkpoint()
			switch {
			case errors.Is(err, store.ErrClosed):
			case err != nil:
				logger.Printf("%s checkpoint failed: %v", why, err)
			default:
				logger.Printf("%s checkpoint seq=%d base=%d in %v (%d keys, %d bytes, %d WAL records dropped)",
					why, cs.Seq, cs.Base, time.Since(began).Round(time.Microsecond), cs.Keys, cs.Bytes, cs.WALRecordsDropped)
			}
		}
		go func() {
			var tick <-chan time.Time
			if o.checkpointIv > 0 {
				t := time.NewTicker(o.checkpointIv)
				defer t.Stop()
				tick = t.C
			}
			if replayed > 0 {
				checkpoint("post-recovery")
			}
			for {
				select {
				case <-tick:
					checkpoint("periodic")
				case <-persist.Due():
					checkpoint("WAL budget")
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		if coord != nil {
			logger.Printf("listening on %s as cluster coordinator over %d nodes %v (instances=%d k=%d salt=%d poll=%v timeout=%v)",
				o.addr, len(coord.Ring().Nodes()), coord.Ring().Nodes(), o.instances, o.k, o.salt, o.clusterPoll, o.clusterTimeout)
		} else {
			logger.Printf("listening on %s (instances=%d k=%d shards=%d salt=%d data-dir=%q fsync=%v)",
				o.addr, o.instances, o.k, o.shards, o.salt, o.dataDir, fsyncPolicy)
		}
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if persist != nil {
			persist.Close()
		}
		return err
	case <-ctx.Done():
	}
	logger.Printf("shutting down")
	// Drain first: open ingest streams stop accepting frames at the next
	// boundary and subscribers get a final "drain" event, so Shutdown's
	// wait for in-flight requests actually terminates (SSE connections
	// would otherwise hold it open until the timeout).
	api.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Requests are drained: flush the WAL and write the final checkpoint
	// so the next boot restores it and replays nothing.
	if persist != nil {
		if err := persist.Close(); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		logger.Printf("final checkpoint written")
	}
	st := eng.Stats()
	logger.Printf("stopped: %d keys, %d ingests served", st.Keys, st.Ingests)
	return nil
}
