package cluster_test

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/store"
)

// sketchBytes bounds an artifact that carries no registry: the header
// plus r·(k+1) entries of 16 bytes.
func sketchBytes(cfg engine.Config) int {
	header := store.EncodeState(&engine.State{Instances: cfg.Instances, K: cfg.K, Entries: make([][]engine.StateEntry, cfg.Instances)})
	return len(header) + cfg.Instances*(cfg.K+1)*16
}

// swapNode is one in-memory node on a stable address whose serving
// process can be swapped: a restart or a replacement gets a fresh
// server.New (and with it a fresh export incarnation) at the same URL.
type swapNode struct {
	mu  sync.Mutex
	eng *engine.Engine
	h   http.Handler
}

func (n *swapNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	h := n.h
	n.mu.Unlock()
	h.ServeHTTP(w, r)
}

func (n *swapNode) engine() *engine.Engine {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng
}

func (n *swapNode) serve(eng *engine.Engine) {
	n.mu.Lock()
	n.eng, n.h = eng, server.New(eng)
	n.mu.Unlock()
}

// TestSketchSyncMatchesFullExports is the delta-vs-full acceptance test:
// a coordinator fetching each node's sketch-sized cut since its cursor
// must serve, round after round, the snapshot of a reference engine that
// merges every node's full plain /v1/export every round. The rounds grow
// the registry (new keys) and leave it alone (weight raises), restart a
// node with its state intact, replace a node by a fresh engine fed other
// data up to the very version the coordinator last merged (a cursor that
// compared versions alone would answer a false 304 there), and lose
// responses mid-round, both on a routed write and on a fetch.
func TestSketchSyncMatchesFullExports(t *testing.T) {
	hash := sampling.NewSeedHash(43)
	cfg := engine.Config{Instances: 2, K: 16, Shards: 4, Hash: hash}
	nodes := make([]*swapNode, 3)
	urls := make([]string, 3)
	for i := range nodes {
		eng, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &swapNode{}
		nodes[i].serve(eng)
		srv := httptest.NewServer(nodes[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	ft := fault.NewTransport(fault.Profile{}, nil)
	coord, err := cluster.New(cluster.Config{
		Nodes:   urls,
		Engine:  cfg,
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cluster.SetNodeTransport(coord, ft)
	ref, err := engine.New(engine.Config{Instances: 2, K: 16, Shards: 8, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	ests := sumEstimators(t, 2)
	ctx := context.Background()

	// Cumulative weights per (instance, key); seen lists the pairs in
	// first-ingest order.
	rng := rand.New(rand.NewSource(17))
	weights := map[engine.Update]float64{}
	var seen []engine.Update
	add := func(b []engine.Update, inst int, key uint64) []engine.Update {
		pair := engine.Update{Instance: inst, Key: key}
		if _, ok := weights[pair]; !ok {
			seen = append(seen, pair)
		}
		weights[pair] += 1 + rng.Float64()*9
		return append(b, engine.Update{Instance: inst, Key: key, Weight: weights[pair]})
	}
	batch := func(size, keyspace int) []engine.Update {
		var b []engine.Update
		for len(b) < size {
			b = add(b, rng.Intn(2), uint64(rng.Intn(keyspace)))
		}
		return b
	}
	// raise re-weights only (instance, key) pairs already ingested: the
	// nodes' registries stay as they are.
	raise := func(size int) []engine.Update {
		var b []engine.Update
		for len(b) < size {
			pair := seen[rng.Intn(len(seen))]
			b = add(b, pair.Instance, pair.Key)
		}
		return b
	}
	route := func(b []engine.Update) {
		t.Helper()
		if err := coord.IngestBatch(ctx, b); err != nil {
			t.Fatalf("routed ingest: %v", err)
		}
	}
	check := func(label string) {
		t.Helper()
		view, _, err := syncRead(ctx, coord)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, u := range urls {
			resp, err := http.Get(u + "/v1/export")
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			st, err := store.DecodeState(data)
			if err != nil {
				t.Fatalf("%s: plain export of %s: %v", label, u, err)
			}
			if err := ref.MergeState(st); err != nil {
				t.Fatal(err)
			}
		}
		requireSameSnapshot(t, label, view, ref.FreshView(), ests)
	}

	route(batch(300, 200))
	check("first fetch")
	before := coord.Stats()
	route(raise(120))
	check("weights only")
	after := coord.Stats()
	if fetched := after.Fetches - before.Fetches; fetched == 0 ||
		after.StateBytes-before.StateBytes > fetched*uint64(sketchBytes(cfg)) {
		t.Fatalf("weight-only round moved %d bytes in %d fetches, want at most %d per fetch (no registry)",
			after.StateBytes-before.StateBytes, fetched, sketchBytes(cfg))
	}
	route(batch(200, 400))
	check("registry grows")

	// A lost response on a routed write: the retry replays under the
	// same Idempotency-Key.
	ft.DropNextResponses(1)
	route(batch(100, 500))
	check("routed response dropped")

	// A lost response on a fetch: the cursor stays where the merge left
	// it, and the retry fetches the same cut again.
	route(raise(80))
	ft.DropNextResponses(1)
	check("fetch response dropped")
	if st := ft.Stats(); st.Dropped != 2 {
		t.Fatalf("transport dropped %d responses, want 2", st.Dropped)
	}

	// Restart node 0 with its state intact (a clean restart restores its
	// checkpoint): same version, new incarnation.
	old := nodes[0].engine()
	restarted, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.RestoreState(old.DumpState()); err != nil {
		t.Fatal(err)
	}
	nodes[0].serve(restarted)
	check("node restarted")
	route(raise(60))
	check("after restart")

	// Replace node 1 by a fresh engine holding other keys, fed up to the
	// version the coordinator last merged from it: each new (instance,
	// key) pair is exactly one mutation.
	v := nodes[1].engine().Version()
	fresh, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := uint64(0); j < v; j++ {
		if err := fresh.Ingest(int(j%2), 100000+j, 1+float64(j%37)); err != nil {
			t.Fatal(err)
		}
	}
	if got := fresh.Version(); got != v {
		t.Fatalf("replacement engine at version %d, want %d", got, v)
	}
	nodes[1].serve(fresh)
	check("node replaced at the same version")
	route(batch(150, 600))
	check("after replacement")
}

// TestCoordinatorCountsIngestsOnce: every fetch carries a node's
// cumulative Ingests, and the coordinator folds in only the increase
// since its last merge of that node, so after any number of syncs the
// merge engine's Ingests is the sum of the nodes'.
func TestCoordinatorCountsIngestsOnce(t *testing.T) {
	cfg := engine.Config{Instances: 2, K: 16, Shards: 4, Hash: sampling.NewSeedHash(47)}
	fc := newFaultCluster(t, 3, cfg)
	coord, err := cluster.New(cluster.Config{Nodes: fc.urls, Engine: cfg, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 4; round++ {
		b := make([]engine.Update, 200)
		for i := range b {
			b[i] = engine.Update{Instance: rng.Intn(2), Key: uint64(rng.Intn(500)), Weight: 1 + rng.Float64()}
		}
		if err := coord.IngestBatch(ctx, b); err != nil {
			t.Fatal(err)
		}
		if err := coord.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var sum uint64
	for _, eng := range fc.engs {
		sum += eng.Stats().Ingests
	}
	if got := coord.Engine().Stats().Ingests; got != sum {
		t.Fatalf("coordinator counts %d ingests, the nodes %d", got, sum)
	}
}
