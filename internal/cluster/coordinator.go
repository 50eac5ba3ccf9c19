package cluster

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// Coordinator fronts a cluster of monestd nodes with the full single-node
// serving surface. It satisfies internal/server's SnapshotSource (Sync:
// scatter-gather the nodes' reduced sketch states and fold them into the
// local merge engine the server is built over, which then serves its own
// cached view), Ingestor (writes: route each request's frames by ring
// owner over one binary stream per owner node, answering once every
// owner has answered — route.go) and ClusterReporter (the degraded label
// and counters). Correctness rests on lossless coordinated-sketch
// merging: the merge engine's snapshot is bit-identical to a single
// engine fed the union stream, so every estimator, cache and push layer
// above works unchanged. Each node ships only its global bottom-(k+1)
// per instance (plus its key registry when that changed): under
// coordinated ranks the union's bottom-(k+1) lies inside the union of
// the nodes' own.
//
// Consistency model: governed by Config.ReadPolicy. Strict (default):
// a read runs one version-vector sync — each node answers a
// /v1/export?since=<cursor> fetch, transferring ≤ r·(k+1) entries only
// when its version advanced (steady state: N tiny 304s, zero state bytes,
// no merge) — and any unreachable node fails the read with a
// degraded-mode error (HTTP 503 through internal/server) rather than
// silently serving estimates missing a key range. Partial/quorum
// policies instead serve the merged view from the reachable subset when
// the policy floor is met, labeled by Degraded (never a silent partial
// answer); only Unavailable-class failures are maskable — a seed
// mismatch or merge failure always fails the round.
type Coordinator struct {
	ring  *Ring
	merge *engine.Engine
	nodes []*nodeClient
	cfg   Config

	// syncMu single-flights scatter-gather rounds; concurrent readers
	// piggyback on the round in flight instead of stampeding the nodes.
	syncMu sync.Mutex

	// degraded labels the last completed round: nil when every node was
	// reached, else the missing-node block responses must carry.
	degraded atomic.Pointer[server.Degraded]

	// idemBase + idemSeq mint the Idempotency-Key of each routed
	// upstream, one per (request, node). The base is random per
	// coordinator instance so a restarted coordinator's keys cannot
	// collide with its predecessor's (and the node's frame digests make
	// even a collision harmless).
	idemBase string
	idemSeq  atomic.Uint64

	stats coordStats

	// stopCtx is done once Close is called: it stops the poll loop and
	// cancels in-flight node traffic (the poll loop's sync runs under it).
	stopCtx context.Context
	stop    context.CancelFunc
}

// Config configures a Coordinator.
type Config struct {
	// Nodes are the member base URLs (e.g. "http://10.0.0.1:8080"), the
	// ring identity: every coordinator configured with the same list and
	// salt routes identically.
	Nodes []string
	// Engine configures the local merge engine; Instances, K and the seed
	// hash must match the nodes' or merges are rejected (seed-fingerprint
	// check in the artifact decoder).
	Engine engine.Config
	// Timeout bounds each node request attempt (0 = 2s).
	Timeout time.Duration
	// ReadPolicy selects strict, partial or quorum reads (zero value =
	// strict). Quorum must not exceed len(Nodes).
	ReadPolicy ReadPolicy
	// Poll, when positive, runs a background sync loop so /v1/subscribe
	// pushes fire on node-side mutations even with no query traffic.
	Poll time.Duration
}

// Every node gets a circuit breaker: breakerThreshold consecutive
// Unavailable-class failures open it, and an open breaker
// short-circuits for breakerCooldown before letting one half-open
// probe through.
const (
	breakerThreshold = 3
	breakerCooldown  = 250 * time.Millisecond
)

// coordStats counts scatter-gather traffic (atomics; read via Stats).
type coordStats struct {
	syncs       atomic.Uint64
	fetches     atomic.Uint64
	notModified atomic.Uint64
	stateBytes  atomic.Uint64
	routed      atomic.Uint64
	degraded    atomic.Uint64
}

// New builds a coordinator and its empty merge engine. It performs no
// I/O; the first read or poll tick populates the merge engine.
func New(cfg Config) (*Coordinator, error) {
	ring, err := NewRing(cfg.Engine.Hash, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	merge, err := engine.New(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("cluster: merge engine: %w", err)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.ReadPolicy.Mode == ReadQuorum && cfg.ReadPolicy.Quorum > len(cfg.Nodes) {
		return nil, fmt.Errorf("cluster: read quorum %d exceeds %d nodes",
			cfg.ReadPolicy.Quorum, len(cfg.Nodes))
	}
	// One dedicated client with keep-alives, suited to the 304-heavy
	// steady state.
	hc := &http.Client{}
	stopCtx, stop := context.WithCancel(context.Background())
	c := &Coordinator{
		ring:     ring,
		merge:    merge,
		cfg:      cfg,
		idemBase: idempotencyBase(),
		stopCtx:  stopCtx,
		stop:     stop,
	}
	// Backoff jitter is seeded from the engine hash so a chaos run's
	// retry schedule replays from the cluster's own configuration.
	jitterSeed := math.Float64bits(cfg.Engine.Hash.U(0x6661756c74))
	for i, addr := range ring.Nodes() {
		n := &nodeClient{
			addr:    addr,
			hc:      hc,
			timeout: cfg.Timeout,
			br:      newBreaker(breakerThreshold, breakerCooldown),
			jitter:  &jitterSource{},
		}
		n.jitter.state.Store(jitterSeed + uint64(i)*0x9e3779b97f4a7c15)
		c.nodes = append(c.nodes, n)
	}
	if cfg.Poll > 0 {
		go c.pollLoop()
	}
	return c, nil
}

// Engine exposes the merge engine — the engine a server in cluster mode
// is constructed over, so /v1/stats, /v1/export and the subscription
// mutation signal all describe the merged cluster state.
func (c *Coordinator) Engine() *engine.Engine { return c.merge }

// Ring exposes the routing ring (tests and diagnostics).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Stats returns the scatter-gather counters and per-node availability
// state.
func (c *Coordinator) Stats() server.Stats {
	s := server.Stats{
		Syncs:         c.stats.syncs.Load(),
		DegradedSyncs: c.stats.degraded.Load(),
		Fetches:       c.stats.fetches.Load(),
		NotModified:   c.stats.notModified.Load(),
		StateBytes:    c.stats.stateBytes.Load(),
		RoutedUpdates: c.stats.routed.Load(),
		Policy:        c.cfg.ReadPolicy.String(),
	}
	now := time.Now()
	for _, n := range c.nodes {
		ns := server.NodeStats{
			Node:          n.addr,
			Breaker:       n.br.current().String(),
			BreakerOpens:  n.br.opens.Load(),
			ShortCircuits: n.br.shortCircuits.Load(),
		}
		ns.LastMergedVersion, ns.StaleSeconds, _ = n.lastMerged(now)
		s.Nodes = append(s.Nodes, ns)
	}
	return s
}

// Degraded returns the degraded block of the last completed round (nil
// = the last round reached every node). Read after Sync and the merge
// engine's view, the label pairs with that view: a concurrent round can
// only make the view fresher than the label claims, never staler.
func (c *Coordinator) Degraded() *server.Degraded { return c.degraded.Load() }

// idempotencyBase mints the per-instance key prefix.
func idempotencyBase() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// Non-cryptographic fallback; frame digests keep collisions safe.
		return fmt.Sprintf("coord-%x", time.Now().UnixNano())
	}
	return "coord-" + hex.EncodeToString(b[:])
}

// Close stops the background poll loop and cancels its in-flight node
// traffic. Idempotent.
func (c *Coordinator) Close() { c.stop() }

func (c *Coordinator) pollLoop() {
	t := time.NewTicker(c.cfg.Poll)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// A poll failure is not actionable here: reads surface it as
			// 503 and the next tick retries.
			_ = c.Sync(c.stopCtx)
		case <-c.stopCtx.Done():
			return
		}
	}
}

// Sync runs one scatter-gather round: every node is asked for its
// sketch-sized state since its committed cursor, concurrently; changed
// states fold into the merge engine in node order (order only affects
// mutation accounting — max-union is commutative). Rounds are
// single-flighted; every read syncs, which is what gives strict
// read-your-writes through the coordinator.
//
// Failure handling is policy-aware, but merges always come first: every
// successful fetch is merged and has its cursor committed BEFORE
// any error is returned — merge-then-commit per node keeps a transient
// failure elsewhere from caching a version whose state was never folded
// in (which would turn that node's next fetch into a 304 and silently
// drop its updates from the merged view). Then:
//
//   - Non-Unavailable failures (4xx config mismatches, merge rejects)
//     always fail the round — no policy masks a correctness problem.
//   - Unavailable-class failures fail the round only when the count of
//     reached nodes falls below the read policy's floor; otherwise the
//     round completes as DEGRADED, recording the missing nodes (with
//     last-merged staleness) for responses to carry. State merged from
//     missing nodes in earlier rounds stays in the view — folds are
//     monotone — so a degraded answer is the union of live state from
//     reachable nodes and the last-merged state of missing ones.
func (c *Coordinator) Sync(ctx context.Context) error {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	type fetched struct {
		st   *engine.State
		etag string
		size int
		err  error
	}
	results := make([]fetched, len(c.nodes))
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		wg.Add(1)
		go func(i int, n *nodeClient) {
			defer wg.Done()
			st, etag, size, err := n.fetchSketch(ctx)
			results[i] = fetched{st: st, etag: etag, size: size, err: err}
		}(i, n)
	}
	wg.Wait()
	var firstErr, firstUnavail error
	reached := 0
	var missing []server.MissingNode
	now := time.Now()
	for i, res := range results {
		switch {
		case res.err != nil:
			if ne, ok := res.err.(*NodeError); ok && ne.Unavailable() {
				if firstUnavail == nil {
					firstUnavail = res.err
				}
				missing = append(missing, c.nodes[i].missingEntry(res.err, now))
			} else if firstErr == nil {
				firstErr = res.err
			}
		case res.st == nil:
			c.stats.notModified.Add(1)
			reached++
		default:
			// The artifact carries the node's cumulative Ingests; fold in
			// only the increase since the committed cut (none after a
			// rollback), so the merge engine counts every update once.
			n := c.nodes[i]
			ingests := res.st.Ingests
			res.st.Ingests -= min(ingests, n.ingests)
			if err := c.merge.MergeState(res.st); err != nil {
				if firstErr == nil {
					firstErr = &NodeError{Addr: n.addr, Status: http.StatusOK,
						Err: fmt.Errorf("merging sketch: %w", err)}
				}
				continue
			}
			n.commit(res.etag, res.st.Version, ingests)
			c.stats.fetches.Add(1)
			c.stats.stateBytes.Add(uint64(res.size))
			reached++
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if reached < c.cfg.ReadPolicy.floor(len(c.nodes)) {
		return firstUnavail
	}
	if len(missing) > 0 {
		c.stats.degraded.Add(1)
		c.degraded.Store(&server.Degraded{
			Policy:    c.cfg.ReadPolicy.String(),
			Reachable: reached,
			Total:     len(c.nodes),
			Missing:   missing,
		})
	} else {
		c.degraded.Store(nil)
	}
	c.stats.syncs.Add(1)
	return nil
}
