package cluster_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/estreg"
	"repro/internal/funcs"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/store"
)

// node is one in-process monestd member: an engine with file-backed
// persistence behind the real HTTP API, on an address that SURVIVES
// restarts (the listener is created explicitly so a restarted node can
// rebind the same port — the coordinator's node list never changes).
type node struct {
	t    *testing.T
	dir  string
	addr string
	cfg  engine.Config
	eng  *engine.Engine
	per  *store.Persistence
	srv  *httptest.Server
}

func startNode(t *testing.T, dir, addr string, cfg engine.Config) *node {
	t.Helper()
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// FsyncNever: the restart scenario is a clean stop/reopen in one
	// process, where page-cache writes survive regardless — crash-level
	// durability is the store package's own test territory.
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	per, _, err := store.Attach(eng, st)
	if err != nil {
		t.Fatal(err)
	}
	// A freshly-released port can lag a beat on some kernels; retry
	// briefly so restart-on-same-address is not flaky.
	var l net.Listener
	for attempt := 0; ; attempt++ {
		l, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if attempt >= 50 {
			t.Fatalf("listening on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	srv := httptest.NewUnstartedServer(server.NewWith(eng, server.Config{Persist: per}))
	srv.Listener.Close()
	srv.Listener = l
	srv.Start()
	return &node{t: t, dir: dir, addr: l.Addr().String(), cfg: cfg, eng: eng, per: per, srv: srv}
}

// stop shuts the node down cleanly (final checkpoint through the
// persistence layer) and frees its port.
func (n *node) stop() {
	n.t.Helper()
	n.srv.Close()
	if err := n.per.Close(); err != nil {
		n.t.Fatal(err)
	}
}

// restart brings the node back on the SAME address from its own data
// directory — the cluster acceptance scenario: membership is stable,
// state comes back from disk.
func (n *node) restart() *node {
	return startNode(n.t, n.dir, n.addr, n.cfg)
}

func (n *node) url() string { return "http://" + n.addr }

// sumEstimators builds estimators over RG(1) for bit-identity
// comparisons. names defaults to the cheap pair lstar+ht; ustar's
// numeric quadrature costs seconds per 400-outcome sweep, so the full
// trio runs once per test, not per checkpoint (outcome-for-outcome
// equality is asserted first, and every estimator is a deterministic
// function of the outcome — per-checkpoint re-evaluation adds nothing).
func sumEstimators(t *testing.T, instances int, names ...string) map[string]estreg.Estimator {
	t.Helper()
	if len(names) == 0 {
		names = []string{"lstar", "ht"}
	}
	f, err := funcs.NewRG(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := estreg.Default()
	ests := make(map[string]estreg.Estimator)
	for _, name := range names {
		est, _, err := reg.Build(name, f, instances)
		if err != nil {
			t.Fatal(err)
		}
		ests[name] = est
	}
	return ests
}

// syncRead is one coordinator read as internal/server performs it: sync
// the nodes into the merge engine, serve its cached view, then read the
// degraded label of the round that produced it.
func syncRead(ctx context.Context, coord *cluster.Coordinator) (engine.SnapshotView, *server.Degraded, error) {
	if err := coord.Sync(ctx); err != nil {
		return engine.SnapshotView{}, nil, err
	}
	return coord.Engine().CachedView(0), coord.Degraded(), nil
}

// requireSameSnapshot asserts the two views describe byte-for-byte the
// same sample: same keys, same per-item outcomes (seed, knowledge,
// values, thresholds), same storage accounting, and — the acceptance
// bar — identical full SumResult structs (estimate, second moment, max
// item, item count) for every estimator. No tolerances anywhere.
func requireSameSnapshot(t *testing.T, label string, got, want engine.SnapshotView, ests map[string]estreg.Estimator) {
	t.Helper()
	gs, ws := got.Snapshot(), want.Snapshot()
	if len(gs.Keys) != len(ws.Keys) {
		t.Fatalf("%s: %d keys, want %d", label, len(gs.Keys), len(ws.Keys))
	}
	for j := range gs.Keys {
		if gs.Keys[j] != ws.Keys[j] {
			t.Fatalf("%s: key[%d] = %d, want %d", label, j, gs.Keys[j], ws.Keys[j])
		}
		o, w := gs.Sample.Outcomes[j], ws.Sample.Outcomes[j]
		if !o.Same(w) {
			t.Fatalf("%s: item %d: outcome %+v != %+v", label, j, o, w)
		}
		for i := range o.Scheme.Tau {
			if o.Scheme.Tau[i] != w.Scheme.Tau[i] {
				t.Fatalf("%s: item %d instance %d: tau %g != %g", label, j, i, o.Scheme.Tau[i], w.Scheme.Tau[i])
			}
		}
	}
	if gs.Sample.SampledEntries != ws.Sample.SampledEntries {
		t.Fatalf("%s: SampledEntries %d, want %d", label, gs.Sample.SampledEntries, ws.Sample.SampledEntries)
	}
	if gs.Sample.TotalEntries != ws.Sample.TotalEntries {
		t.Fatalf("%s: TotalEntries %d, want %d", label, gs.Sample.TotalEntries, ws.Sample.TotalEntries)
	}
	for name, est := range ests {
		gr, err := estreg.Sum(est, gs.Sample.Outcomes, nil)
		if err != nil {
			t.Fatalf("%s: %s over merged: %v", label, name, err)
		}
		wr, err := estreg.Sum(est, ws.Sample.Outcomes, nil)
		if err != nil {
			t.Fatalf("%s: %s over union: %v", label, name, err)
		}
		if gr != wr {
			t.Fatalf("%s: %s SumResult %+v != union %+v", label, name, gr, wr)
		}
	}
}

// TestClusterMatchesUnionEngine is the cluster acceptance test: three
// nodes (each persisting to its own data dir) behind a coordinator,
// ingest routed through the coordinator, versus ONE single-node engine
// fed the identical union stream. After every batch the coordinator's
// merged snapshot must be bit-identical to the union engine's — full
// SumResult structs for lstar/ustar/ht, outcome by outcome — including
// after every node is restarted from its own data directory. The union
// engine deliberately uses a different shard count: the equivalence is
// layout-independent.
func TestClusterMatchesUnionEngine(t *testing.T) {
	hash := sampling.NewSeedHash(77)
	nodeCfg := engine.Config{Instances: 2, K: 16, Shards: 4, Hash: hash}

	base := t.TempDir()
	nodes := make([]*node, 3)
	urls := make([]string, 3)
	for i := range nodes {
		nodes[i] = startNode(t, filepath.Join(base, "node"+string(rune('0'+i))), "127.0.0.1:0", nodeCfg)
		urls[i] = nodes[i].url()
	}
	defer func() {
		for _, n := range nodes {
			n.srv.Close()
		}
	}()

	coord, err := cluster.New(cluster.Config{
		Nodes:   urls,
		Engine:  engine.Config{Instances: 2, K: 16, Shards: 4, Hash: hash},
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	union, err := engine.New(engine.Config{Instances: 2, K: 16, Shards: 8, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	ests := sumEstimators(t, 2)

	// A weight stream with repeats (max-folds), both instances, enough
	// keys that all three nodes own some.
	rng := rand.New(rand.NewSource(9))
	nextBatch := func(size int) []engine.Update {
		batch := make([]engine.Update, size)
		for i := range batch {
			batch[i] = engine.Update{
				Instance: rng.Intn(2),
				Key:      uint64(rng.Intn(400)),
				Weight:   1 + rng.Float64()*99,
			}
		}
		return batch
	}
	feed := func(batch []engine.Update) {
		t.Helper()
		if err := coord.IngestBatch(context.Background(), batch); err != nil {
			t.Fatalf("routed ingest: %v", err)
		}
		if err := union.IngestBatch(batch); err != nil {
			t.Fatalf("union ingest: %v", err)
		}
	}
	check := func(label string) {
		t.Helper()
		view, _, err := syncRead(context.Background(), coord)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireSameSnapshot(t, label, view, union.FreshView(), ests)
	}

	total := 0
	for round := 0; round < 6; round++ {
		batch := nextBatch(300)
		feed(batch)
		total += len(batch)
		check("round " + string(rune('0'+round)))
	}

	// Routing actually spread the keys: every node holds a share.
	for i, n := range nodes {
		if got := len(n.eng.DumpState().Keys); got == 0 {
			t.Errorf("node %d holds no keys after %d routed updates", i, total)
		}
	}
	if got := coord.Stats().RoutedUpdates; got != uint64(total) {
		t.Errorf("RoutedUpdates = %d, want %d", got, total)
	}

	// Version-vector caching: re-querying with no node writes re-fetches
	// NOTHING — no 200s, no state bytes, only 304s.
	if err := coord.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := coord.Stats()
	for i := 0; i < 2; i++ {
		if err := coord.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	after := coord.Stats()
	if after.Fetches != before.Fetches {
		t.Errorf("idle re-queries fetched state: %d -> %d fetches", before.Fetches, after.Fetches)
	}
	if after.StateBytes != before.StateBytes {
		t.Errorf("idle re-queries moved %d state bytes", after.StateBytes-before.StateBytes)
	}
	if want := before.NotModified + uint64(2*len(nodes)); after.NotModified != want {
		t.Errorf("NotModified = %d, want %d", after.NotModified, want)
	}
	if want := before.Syncs + 2; after.Syncs != want {
		t.Errorf("Syncs = %d, want %d", after.Syncs, want)
	}

	// Restart every node from its own data directory, one at a time.
	// While a node is down the coordinator refuses to serve (degraded
	// mode, not silent under-counting); once it is back, ingest keeps
	// routing and the merged snapshot is again bit-identical.
	for i := range nodes {
		nodes[i].stop()
		if err := coord.Sync(context.Background()); err == nil {
			t.Fatalf("query succeeded with node %d down", i)
		} else {
			var ne *cluster.NodeError
			if !errors.As(err, &ne) || !ne.Unavailable() {
				t.Fatalf("node %d down: error %v is not an unavailable NodeError", i, err)
			}
		}
		nodes[i] = nodes[i].restart()
		feed(nextBatch(200))
		check("after restart of node " + string(rune('0'+i)))
	}

	// Final full-trio sweep: the same bit-identity, now including
	// ustar's quadrature path, over the post-restart state.
	view, _, err := syncRead(context.Background(), coord)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSnapshot(t, "final full trio", view, union.FreshView(),
		sumEstimators(t, 2, "lstar", "ustar", "ht"))
}

// TestClusterDegradedWrites pins the write-path half of degraded mode:
// with one node down, updates owned by the dead node fail with an
// unavailable NodeError while updates owned by live nodes still land.
func TestClusterDegradedWrites(t *testing.T) {
	hash := sampling.NewSeedHash(13)
	cfg := engine.Config{Instances: 1, K: 8, Shards: 2, Hash: hash}
	base := t.TempDir()
	a := startNode(t, filepath.Join(base, "a"), "127.0.0.1:0", cfg)
	defer a.srv.Close()
	b := startNode(t, filepath.Join(base, "b"), "127.0.0.1:0", cfg)

	coord, err := cluster.New(cluster.Config{
		Nodes:   []string{a.url(), b.url()},
		Engine:  cfg,
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Find keys owned by each node.
	ring := coord.Ring()
	ownedBy := func(idx int) uint64 {
		for key := uint64(0); ; key++ {
			if ring.Owner(key) == idx {
				return key
			}
		}
	}
	keyA, keyB := ownedBy(0), ownedBy(1)

	b.stop()
	if err := coord.IngestBatch(context.Background(), []engine.Update{{Key: keyB, Weight: 1}}); err == nil {
		t.Fatal("ingest for dead node's key succeeded")
	} else {
		var ne *cluster.NodeError
		if !errors.As(err, &ne) || !ne.Unavailable() {
			t.Fatalf("dead-owner ingest error %v is not an unavailable NodeError", err)
		}
	}
	if err := coord.IngestBatch(context.Background(), []engine.Update{{Key: keyA, Weight: 2}}); err != nil {
		t.Fatalf("live-owner ingest failed: %v", err)
	}
	if got := len(a.eng.DumpState().Keys); got != 1 {
		t.Fatalf("live node holds %d keys, want 1", got)
	}
}

// TestSyncPartialFailureKeepsSuccessfulFetch pins the version-vector
// commit discipline behind strict reads: a vector entry advances only
// when the fetched state is actually MERGED. In a degraded round (one
// node down) the live node's fetch still succeeds; if its version were
// cached at decode time while the round bailed before merging it, the
// node would answer 304 on every later sync and its updates would be
// silently missing from the merged view — exactly the under-counting
// strict reads exist to prevent. Both kill orders run because Sync folds
// results in node order, so only the dead-node-first order can strand a
// later node's fetch.
func TestSyncPartialFailureKeepsSuccessfulFetch(t *testing.T) {
	hash := sampling.NewSeedHash(21)
	cfg := engine.Config{Instances: 1, K: 64, Shards: 2, Hash: hash}
	base := t.TempDir()
	nodes := []*node{
		startNode(t, filepath.Join(base, "a"), "127.0.0.1:0", cfg),
		startNode(t, filepath.Join(base, "b"), "127.0.0.1:0", cfg),
	}
	defer func() {
		for _, n := range nodes {
			n.srv.Close()
		}
	}()

	coord, err := cluster.New(cluster.Config{
		Nodes:   []string{nodes[0].url(), nodes[1].url()},
		Engine:  cfg,
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	for i := range nodes {
		live := 1 - i
		nodes[i].stop()
		// The live node advances while its peer is down (written directly:
		// routing is not under test, merge completeness is).
		key := uint64(1000 + i)
		if err := nodes[live].eng.Ingest(0, key, 42); err != nil {
			t.Fatal(err)
		}
		// Strict reads: the degraded sync fails — but the live node's
		// fetched state must either merge now or stay fetchable later.
		if err := coord.Sync(context.Background()); err == nil {
			t.Fatalf("sync succeeded with node %d down", i)
		}
		nodes[i] = nodes[i].restart()
		view, _, err := syncRead(context.Background(), coord)
		if err != nil {
			t.Fatalf("sync after restart of node %d: %v", i, err)
		}
		found := false
		for _, k := range view.Keys {
			if k == key {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("key %d (written to live node %d during node %d's outage) missing from merged view: "+
				"the degraded round cached the live node's version without merging its state", key, live, i)
		}
	}
}

// TestClusterSeedMismatch: a node sketching under a different salt must
// be rejected at merge time (the artifact's seed fingerprint), surfaced
// as a non-unavailable NodeError — operator error, not an outage.
func TestClusterSeedMismatch(t *testing.T) {
	nodeCfg := engine.Config{Instances: 1, K: 8, Shards: 2, Hash: sampling.NewSeedHash(1)}
	n := startNode(t, t.TempDir(), "127.0.0.1:0", nodeCfg)
	defer n.srv.Close()
	if err := n.eng.Ingest(0, 7, 1.5); err != nil {
		t.Fatal(err)
	}

	coord, err := cluster.New(cluster.Config{
		Nodes:  []string{n.url()},
		Engine: engine.Config{Instances: 1, K: 8, Shards: 2, Hash: sampling.NewSeedHash(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	err = coord.Sync(context.Background())
	if err == nil {
		t.Fatal("seed-mismatched node merged cleanly")
	}
	var ne *cluster.NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("error %v is not a NodeError", err)
	}
	if ne.Unavailable() {
		t.Fatalf("seed mismatch reported as unavailable: %v", err)
	}
}

// TestConfigHoldsDeploymentSettingsOnly pins cluster.Config to the
// values a deployment sets. Breaker tuning and the node transport are
// package constants that tests override through export_test.go; a
// setting only tests need must not come back as a Config field.
func TestConfigHoldsDeploymentSettingsOnly(t *testing.T) {
	want := []string{"Nodes", "Engine", "Timeout", "ReadPolicy", "Poll"}
	typ := reflect.TypeOf(cluster.Config{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cluster.Config fields = %v, want %v", got, want)
	}
}
