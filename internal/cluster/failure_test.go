package cluster_test

// Failure-domain tests: degraded read policies, circuit breakers over
// injected network faults, and the routed-retry idempotency contract.
// The injected faults come from internal/fault — a TCP proxy for
// partition/blackhole shapes and an http.RoundTripper for the
// response-lost-in-flight ambiguity.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/sampling"
	"repro/internal/server"
)

func TestParseReadPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want cluster.ReadPolicy
		ok   bool
	}{
		{"", cluster.ReadPolicy{Mode: cluster.ReadStrict}, true},
		{"strict", cluster.ReadPolicy{Mode: cluster.ReadStrict}, true},
		{"partial", cluster.ReadPolicy{Mode: cluster.ReadPartial}, true},
		{"quorum=1", cluster.ReadPolicy{Mode: cluster.ReadQuorum, Quorum: 1}, true},
		{"quorum=3", cluster.ReadPolicy{Mode: cluster.ReadQuorum, Quorum: 3}, true},
		{"quorum=0", cluster.ReadPolicy{}, false},
		{"quorum=-2", cluster.ReadPolicy{}, false},
		{"quorum=x", cluster.ReadPolicy{}, false},
		{"QUORUM=2", cluster.ReadPolicy{}, false},
		{"bogus", cluster.ReadPolicy{}, false},
	} {
		got, err := cluster.ParseReadPolicy(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseReadPolicy(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseReadPolicy(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		if tc.ok {
			back, err := cluster.ParseReadPolicy(got.String())
			if err != nil || back != got {
				t.Errorf("ParseReadPolicy(%q).String() = %q does not round-trip", tc.in, got.String())
			}
		}
	}
}

func TestNewRejectsOversizedQuorum(t *testing.T) {
	cfg := engine.Config{Instances: 2, K: 8, Shards: 2, Hash: sampling.NewSeedHash(5)}
	_, err := cluster.New(cluster.Config{
		Nodes:      []string{"http://a:1", "http://b:2"},
		Engine:     cfg,
		ReadPolicy: cluster.ReadPolicy{Mode: cluster.ReadQuorum, Quorum: 3},
	})
	if err == nil {
		t.Fatal("quorum=3 over 2 nodes accepted")
	}
}

// TestClusterDegradedReads is the degraded-mode acceptance scenario: a
// three-node cluster under quorum=2 loses one node and keeps serving —
// every response labeled with a Degraded block naming the missing node —
// and the served view is bit-identical to the union of the live nodes'
// state plus the dead node's last-merged contribution (folds are
// monotone, so nothing already merged is lost). Losing a second node
// breaches the floor and fails the read. Healing clears the label and
// restores strict full-union equivalence.
func TestClusterDegradedReads(t *testing.T) {
	hash := sampling.NewSeedHash(41)
	nodeCfg := engine.Config{Instances: 2, K: 16, Shards: 4, Hash: hash}

	base := t.TempDir()
	nodes := make([]*node, 3)
	urls := make([]string, 3)
	for i := range nodes {
		nodes[i] = startNode(t, filepath.Join(base, fmt.Sprintf("node%d", i)), "127.0.0.1:0", nodeCfg)
		urls[i] = nodes[i].url()
	}
	defer func() {
		for _, n := range nodes {
			n.srv.Close()
		}
	}()

	coord, err := cluster.New(cluster.Config{
		Nodes:      urls,
		Engine:     engine.Config{Instances: 2, K: 16, Shards: 4, Hash: hash},
		Timeout:    2 * time.Second,
		ReadPolicy: cluster.ReadPolicy{Mode: cluster.ReadQuorum, Quorum: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// Breakers that never trip — the breaker lifecycle has its own test
	// below.
	cluster.SetBreakers(coord, cluster.NeverTrip, 0)

	// The union oracle sees every update any node ever accepted. A
	// different shard count pins layout independence, same as the main
	// acceptance test.
	union, err := engine.New(engine.Config{Instances: 2, K: 16, Shards: 8, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	feed := func(n *node, count int) {
		t.Helper()
		batch := make([]engine.Update, count)
		for i := range batch {
			batch[i] = engine.Update{
				Instance: rng.Intn(2),
				Key:      uint64(rng.Intn(300)),
				Weight:   1 + rng.Float64()*99,
			}
		}
		if err := n.eng.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := union.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	ests := sumEstimators(t, 2)

	for _, n := range nodes {
		feed(n, 200)
	}
	view, deg, err := syncRead(ctx, coord)
	if err != nil {
		t.Fatal(err)
	}
	if deg != nil {
		t.Fatalf("healthy cluster reported degraded: %+v", deg)
	}
	requireSameSnapshot(t, "healthy", view, union.FreshView(), ests)

	// Kill node 2 AFTER its state was merged; keep writing to the
	// survivors. The quorum=2 read must keep serving, labeled.
	nodes[2].stop()
	feed(nodes[0], 150)
	feed(nodes[1], 150)
	view, deg, err = syncRead(ctx, coord)
	if err != nil {
		t.Fatalf("quorum=2 read with 2/3 nodes up failed: %v", err)
	}
	if deg == nil {
		t.Fatal("read with a node down carried no degraded block")
	}
	if deg.Policy != "quorum=2" || deg.Reachable != 2 || deg.Total != 3 {
		t.Fatalf("degraded block = %+v, want policy quorum=2 reachable 2/3", deg)
	}
	if len(deg.Missing) != 1 || deg.Missing[0].Node != nodes[2].url() {
		t.Fatalf("degraded block names %+v, want exactly %s", deg.Missing, nodes[2].url())
	}
	m := deg.Missing[0]
	if m.Error == "" {
		t.Fatal("missing node carries no error")
	}
	if m.NeverMerged || m.LastMergedVersion == 0 || m.StaleSeconds < 0 {
		t.Fatalf("missing node staleness = %+v, want a merged version with nonnegative staleness", m)
	}
	// The monotone license: the view is live survivors + the dead node's
	// last-merged state — exactly the union oracle, bit for bit.
	requireSameSnapshot(t, "degraded", view, union.FreshView(), ests)
	if st := coord.Stats(); st.DegradedSyncs == 0 {
		t.Fatalf("stats counted no degraded syncs: %+v", st)
	}
	if coord.Degraded() == nil {
		t.Fatal("Degraded() cleared while a node is still down")
	}

	// Second node down: 1 < quorum floor 2 — the read must fail, with an
	// Unavailable-class NodeError, not serve a silent partial.
	nodes[1].stop()
	if err := coord.Sync(ctx); err == nil {
		t.Fatal("read served below the quorum floor")
	} else {
		var ne *cluster.NodeError
		if !errors.As(err, &ne) || !ne.Unavailable() {
			t.Fatalf("floor breach error = %v, want an Unavailable NodeError", err)
		}
	}

	// Heal both nodes from their own data dirs: the label clears and the
	// full-union strict equivalence returns, including post-heal writes.
	nodes[1] = nodes[1].restart()
	nodes[2] = nodes[2].restart()
	feed(nodes[2], 100)
	view, deg, err = syncRead(ctx, coord)
	if err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if deg != nil {
		t.Fatalf("healed cluster still degraded: %+v", deg)
	}
	requireSameSnapshot(t, "healed", view, union.FreshView(), ests)
}

// faultCluster is an in-process cluster without persistence for
// breaker/idempotency tests: engines behind real HTTP, optionally with
// a fault proxy in front of one node.
type faultCluster struct {
	engs []*engine.Engine
	srvs []*httptest.Server
	urls []string
}

func newFaultCluster(tb testing.TB, nodeCount int, cfg engine.Config) *faultCluster {
	tb.Helper()
	c := &faultCluster{}
	for i := 0; i < nodeCount; i++ {
		eng, err := engine.New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		srv := httptest.NewServer(server.New(eng))
		c.engs = append(c.engs, eng)
		c.srvs = append(c.srvs, srv)
		c.urls = append(c.urls, srv.URL)
	}
	tb.Cleanup(func() {
		for _, s := range c.srvs {
			s.Close()
		}
	})
	return c
}

func nodeStatsFor(tb testing.TB, coord *cluster.Coordinator, url string) server.NodeStats {
	tb.Helper()
	for _, ns := range coord.Stats().Nodes {
		if ns.Node == url {
			return ns
		}
	}
	tb.Fatalf("no node stats for %s", url)
	return server.NodeStats{}
}

// TestBreakerLifecycle drives the per-node circuit breaker through its
// full closed → open → half-open → closed cycle with a blackhole proxy
// (the failure shape that costs a full timeout per contact): three
// timeout-class failures open the breaker, open syncs short-circuit the
// dead node in well under the timeout, and after the proxy heals the
// cooldown probe closes the breaker and clears the degraded label.
func TestBreakerLifecycle(t *testing.T) {
	cfg := engine.Config{Instances: 2, K: 16, Shards: 4, Hash: sampling.NewSeedHash(61)}
	fc := newFaultCluster(t, 2, cfg)

	proxy, err := fault.NewProxy(fc.srvs[1].Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxied := proxy.URL()

	const timeout = 500 * time.Millisecond
	coord, err := cluster.New(cluster.Config{
		Nodes:      []string{fc.urls[0], proxied},
		Engine:     cfg,
		Timeout:    timeout,
		ReadPolicy: cluster.ReadPolicy{Mode: cluster.ReadPartial},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cluster.SetBreakers(coord, 3, 100*time.Millisecond)
	ctx := context.Background()

	if err := fc.engs[0].Ingest(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := fc.engs[1].Ingest(1, 2, 7.5); err != nil {
		t.Fatal(err)
	}
	if err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if ns := nodeStatsFor(t, coord, proxied); ns.Breaker != "closed" {
		t.Fatalf("healthy breaker = %s, want closed", ns.Breaker)
	}

	// Blackhole: each contact now hangs for the full timeout. Partial
	// policy keeps the rounds serving off node 0 while failures accrue:
	// round one spends its attempt and its one retry, round two's first
	// attempt is the third failure and its retry is already
	// short-circuited.
	proxy.Blackhole(true)
	for i := 0; i < 2; i++ {
		if err := coord.Sync(ctx); err != nil {
			t.Fatalf("partial sync %d with blackholed node failed: %v", i, err)
		}
	}
	if ns := nodeStatsFor(t, coord, proxied); ns.Breaker != "open" || ns.BreakerOpens != 1 {
		t.Fatalf("after 3 timeout failures: breaker %s opens %d, want open/1", ns.Breaker, ns.BreakerOpens)
	}

	// Open breaker: the dead node is skipped without touching the wire,
	// so the sync costs nowhere near the timeout.
	start := time.Now()
	if err := coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= timeout/2 {
		t.Fatalf("open-breaker sync took %v — dead node was not short-circuited (timeout %v)", elapsed, timeout)
	}
	if ns := nodeStatsFor(t, coord, proxied); ns.ShortCircuits == 0 {
		t.Fatal("open breaker recorded no short circuits")
	}
	deg := coord.Degraded()
	if deg == nil || len(deg.Missing) != 1 || deg.Missing[0].Node != proxied {
		t.Fatalf("short-circuited round's degraded block = %+v, want missing %s", deg, proxied)
	}

	// Heal and wait out the cooldown: the half-open probe reaches the
	// node, closes the breaker and clears the label.
	proxy.Blackhole(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := coord.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		if coord.Degraded() == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("degraded label never cleared after heal; node stats %+v",
				nodeStatsFor(t, coord, proxied))
		}
		time.Sleep(25 * time.Millisecond)
	}
	if ns := nodeStatsFor(t, coord, proxied); ns.Breaker != "closed" {
		t.Fatalf("healed breaker = %s, want closed", ns.Breaker)
	}
}

// TestCoordinatorReadinessFollowsReadPolicy serves a coordinator as
// monestd does, with one of three nodes behind a fault proxy: while that
// node is blackholed, /readyz is 503 under strict and 200 under quorum=2,
// whose floor the two live nodes meet; restored, it is 200 under both.
func TestCoordinatorReadinessFollowsReadPolicy(t *testing.T) {
	for _, tc := range []struct {
		policy   cluster.ReadPolicy
		downCode int
	}{
		{cluster.ReadPolicy{Mode: cluster.ReadStrict}, http.StatusServiceUnavailable},
		{cluster.ReadPolicy{Mode: cluster.ReadQuorum, Quorum: 2}, http.StatusOK},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			cfg := engine.Config{Instances: 2, K: 16, Shards: 4, Hash: sampling.NewSeedHash(17)}
			fc := newFaultCluster(t, 3, cfg)
			proxy, err := fault.NewProxy(fc.srvs[2].Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()
			coord, err := cluster.New(cluster.Config{
				Nodes:      []string{fc.urls[0], fc.urls[1], proxy.URL()},
				Engine:     cfg,
				Timeout:    200 * time.Millisecond,
				ReadPolicy: tc.policy,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			cluster.SetBreakers(coord, cluster.BreakerThreshold, 50*time.Millisecond)
			ts := httptest.NewServer(server.NewWith(coord.Engine(), server.Config{Snapshots: coord, Ingest: coord, Cluster: coord}))
			defer ts.Close()
			readyz := func() int {
				resp, err := http.Get(ts.URL + "/readyz")
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				return resp.StatusCode
			}

			if code := readyz(); code != http.StatusOK {
				t.Fatalf("readyz with every node up = %d, want 200", code)
			}
			proxy.Blackhole(true)
			// The first probes pay the timeout until the breaker opens;
			// the later ones short-circuit. Every one answers the same.
			for i := 0; i < 4; i++ {
				if code := readyz(); code != tc.downCode {
					t.Fatalf("readyz %d with a node blackholed = %d, want %d", i, code, tc.downCode)
				}
			}
			proxy.Blackhole(false)
			deadline := time.Now().Add(10 * time.Second)
			for readyz() != http.StatusOK {
				if time.Now().After(deadline) {
					t.Fatal("readyz never returned to 200 after the node was restored")
				}
				time.Sleep(25 * time.Millisecond)
			}
		})
	}
}

// TestRoutedRetryAppliesOnce is the regression test for the routed-write
// retry ambiguity: the node applies a forwarded /v1/stream batch but the
// coordinator loses the response, retries under the same
// Idempotency-Key, and the node must recognize the replayed frames and
// count the batch exactly once — engine ingests and wire counters both.
func TestRoutedRetryAppliesOnce(t *testing.T) {
	cfg := engine.Config{Instances: 2, K: 16, Shards: 4, Hash: sampling.NewSeedHash(19)}
	fc := newFaultCluster(t, 1, cfg)

	ft := fault.NewTransport(fault.Profile{}, nil)
	coord, err := cluster.New(cluster.Config{
		Nodes:   fc.urls,
		Engine:  cfg,
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cluster.SetNodeTransport(coord, ft)

	batch := make([]engine.Update, 10)
	oracle, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		batch[i] = engine.Update{Instance: i % 2, Key: uint64(100 + i), Weight: float64(i + 1)}
	}
	if err := oracle.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}

	// The node processes the request; the response dies on the way back.
	// The default one retry replays the stream under the same key.
	ft.DropNextResponses(1)
	if err := coord.IngestBatch(context.Background(), batch); err != nil {
		t.Fatalf("routed batch with dropped response failed: %v", err)
	}
	if st := ft.Stats(); st.Dropped != 1 {
		t.Fatalf("transport dropped %d responses, want 1", st.Dropped)
	}

	if got, want := fc.engs[0].Stats().Ingests, uint64(len(batch)); got != want {
		t.Fatalf("node ingested %d updates, want %d — retried routed batch double-counted", got, want)
	}
	ests := sumEstimators(t, 2)
	requireSameSnapshot(t, "routed-retry", fc.engs[0].FreshView(), oracle.FreshView(), ests)

	// The node's wire counters tell the same story: the replay was
	// recognized and skipped, not re-applied.
	resp, err := http.Get(fc.urls[0] + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Wire struct {
			StreamFramesDeduped uint64 `json:"stream_frames_deduped"`
		} `json:"wire"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Wire.StreamFramesDeduped == 0 {
		t.Fatal("node deduped no stream frames — the replay was re-applied")
	}
}

// fullDisk is an engine.Journal whose every append fails.
type fullDisk struct{}

func (fullDisk) Append([]engine.Update) error { return errors.New("disk full") }

// TestRoutedJournalFailureIsRetriedThenUnavailable: a node whose WAL
// append fails answers 500 (its own fault, not the batch's), so the
// coordinator treats the node as unavailable — it retries the share
// under the same Idempotency-Key and then surfaces 503, never the
// non-retryable 400 a rejected update gets.
func TestRoutedJournalFailureIsRetriedThenUnavailable(t *testing.T) {
	cfg := engine.Config{Instances: 2, K: 16, Shards: 4, Hash: sampling.NewSeedHash(29)}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetJournal(fullDisk{})
	node := server.New(eng)
	var mu sync.Mutex
	var keys []string
	nodeSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stream" {
			mu.Lock()
			keys = append(keys, r.Header.Get("Idempotency-Key"))
			mu.Unlock()
		}
		node.ServeHTTP(w, r)
	}))
	defer nodeSrv.Close()

	coord, err := cluster.New(cluster.Config{Nodes: []string{nodeSrv.URL}, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cluster.SetBreakers(coord, cluster.NeverTrip, 0)
	front := httptest.NewServer(server.NewWith(coord.Engine(),
		server.Config{Snapshots: coord, Ingest: coord, Cluster: coord}))
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/ingest", "application/json",
		strings.NewReader(`{"updates":[{"instance":0,"id":7,"weight":1.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != "unavailable" ||
		!strings.Contains(env.Error.Message, "status 500") || !strings.Contains(env.Error.Message, "disk full") {
		t.Fatalf("coordinator answered %d %+v, want 503 unavailable naming the node's 500", resp.StatusCode, env.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 2 || keys[0] == "" || keys[0] != keys[1] {
		t.Fatalf("node saw stream attempts keyed %q, want the share sent twice under one Idempotency-Key", keys)
	}
}

// TestSyncDeadNodeShortCircuits is the deterministic half of
// BenchmarkSyncDeadNode: once the breaker is open, a sync round with a
// blackholed node completes in a small fraction of the node timeout and
// still labels the view.
func TestSyncDeadNodeShortCircuits(t *testing.T) {
	coord, proxied, _ := deadNodeCluster(t, 500*time.Millisecond)
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := coord.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed >= 500*time.Millisecond {
		t.Fatalf("5 open-breaker syncs took %v — dead node still costs the timeout", elapsed)
	}
	deg := coord.Degraded()
	if deg == nil || len(deg.Missing) != 1 || deg.Missing[0].Node != proxied {
		t.Fatalf("degraded block = %+v, want missing %s", deg, proxied)
	}
	t.Logf("5 syncs with a dead node in %v (%v per sync)", elapsed, elapsed/5)
}

// deadNodeCluster builds a 3-node cluster under quorum=2 with node 2
// behind a blackholed proxy and the breaker already tripped (cooldown
// effectively infinite, so no half-open probes pay the timeout
// mid-measurement).
func deadNodeCluster(tb testing.TB, timeout time.Duration) (*cluster.Coordinator, string, *faultCluster) {
	tb.Helper()
	cfg := engine.Config{Instances: 2, K: 16, Shards: 4, Hash: sampling.NewSeedHash(3)}
	fc := newFaultCluster(tb, 3, cfg)

	proxy, err := fault.NewProxy(fc.srvs[2].Listener.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { proxy.Close() })

	coord, err := cluster.New(cluster.Config{
		Nodes:      []string{fc.urls[0], fc.urls[1], proxy.URL()},
		Engine:     cfg,
		Timeout:    timeout,
		ReadPolicy: cluster.ReadPolicy{Mode: cluster.ReadQuorum, Quorum: 2},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(coord.Close)
	cluster.SetBreakers(coord, 3, time.Hour)

	for key := 0; key < 1024; key++ {
		u := engine.Update{Instance: key % 2, Key: uint64(key), Weight: 1 + float64(key%97)}
		if err := fc.engs[key%2].IngestBatch([]engine.Update{u}); err != nil {
			tb.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := coord.Sync(ctx); err != nil {
		tb.Fatal(err)
	}
	proxy.Blackhole(true)
	for i := 0; i < 3; i++ {
		if err := coord.Sync(ctx); err != nil {
			tb.Fatal(err)
		}
	}
	ns := nodeStatsFor(tb, coord, proxy.URL())
	if ns.Breaker != "open" {
		tb.Fatalf("setup did not open the breaker: %+v", ns)
	}
	return coord, proxy.URL(), fc
}

// BenchmarkSyncDeadNode pins the breaker's perf claim: with one node
// blackholed and its breaker open, the steady-state sync is two local
// 304 rounds plus a wire-free short-circuit — the dead node adds
// effectively nothing, instead of timeout×(1+retries) per read.
func BenchmarkSyncDeadNode(b *testing.B) {
	coord, _, _ := deadNodeCluster(b, 250*time.Millisecond)
	ctx := context.Background()
	before := nodeStatsForBench(coord)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := coord.Sync(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := nodeStatsForBench(coord)
	if got, want := after-before, uint64(b.N); got < want {
		b.Fatalf("short circuits grew %d, want ≥ %d (one per sync)", got, want)
	}
}

// nodeStatsForBench sums short-circuits across nodes (only the dead one
// accrues them).
func nodeStatsForBench(coord *cluster.Coordinator) uint64 {
	var total uint64
	for _, ns := range coord.Stats().Nodes {
		total += ns.ShortCircuits
	}
	return total
}
