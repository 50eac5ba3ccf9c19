package cluster_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/streamclient"
)

// benchCluster is an in-process cluster without persistence: n nodes
// behind real HTTP, totalKeys spread by ring ownership, one initial
// sync so the coordinator's cursors are warm. mut is a key owned by
// node 0 and already active in instance 0 — the benchmark's single-node
// write target, whose weight raises never grow the registry.
type benchCluster struct {
	coord *cluster.Coordinator
	engs  []*engine.Engine
	srvs  []*httptest.Server
	mut   uint64
}

// benchConfig is every benchCluster engine's configuration.
var benchConfig = engine.Config{Instances: 2, K: 16, Shards: 4, Hash: sampling.NewSeedHash(3)}

func newBenchCluster(tb testing.TB, nodeCount, totalKeys int) *benchCluster {
	tb.Helper()
	cfg := benchConfig
	c := &benchCluster{}
	urls := make([]string, nodeCount)
	for i := 0; i < nodeCount; i++ {
		eng, err := engine.New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		srv := httptest.NewServer(server.New(eng))
		c.engs = append(c.engs, eng)
		c.srvs = append(c.srvs, srv)
		urls[i] = srv.URL
	}
	coord, err := cluster.New(cluster.Config{Nodes: urls, Engine: cfg, Timeout: 10 * time.Second})
	if err != nil {
		tb.Fatal(err)
	}
	c.coord = coord

	ring := coord.Ring()
	per := make([][]engine.Update, nodeCount)
	for key := 0; key < totalKeys; key++ {
		u := engine.Update{Instance: key % 2, Key: uint64(key), Weight: 1 + float64(key%97)}
		per[ring.Owner(u.Key)] = append(per[ring.Owner(u.Key)], u)
		if ring.Owner(u.Key) == 0 && u.Instance == 0 {
			c.mut = u.Key
		}
	}
	for i, batch := range per {
		if err := c.engs[i].IngestBatch(batch); err != nil {
			tb.Fatal(err)
		}
	}
	if err := coord.Sync(context.Background()); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		coord.Close()
		for _, s := range c.srvs {
			s.Close()
		}
	})
	return c
}

// mutateAndSync is one coordinator read after one single-key write: the
// write bumps node 0's version, so the sync re-fetches exactly that
// node's bottom-(k+1) per instance (the others answer 304) and folds it
// in.
func (c *benchCluster) mutateAndSync(tb testing.TB, round int) {
	if err := c.engs[0].Ingest(0, c.mut, 1e6+float64(round)); err != nil {
		tb.Fatal(err)
	}
	if err := c.coord.Sync(context.Background()); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkScatterGather pins the cluster scaling claim: a coordinator
// query after a single-node write costs one node's bottom-(k+1) per
// instance (fetch + decode + fold) — what the sample holds — not the
// node's or the cluster's key count. The cluster case holds 64k keys on 3
// nodes (~21k keys per node); the single case 16k keys on 1 node; both
// move the same r·(k+1) entries per sync (stateB/op), and the cluster
// case pays only its two other nodes' 304 round trips on top.
func BenchmarkScatterGather(b *testing.B) {
	for _, bc := range []struct {
		name             string
		nodes, totalKeys int
	}{
		{"cluster-64k-3nodes", 3, 64 << 10},
		{"single-16k", 1, 16 << 10},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := newBenchCluster(b, bc.nodes, bc.totalKeys)
			before := c.coord.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.mutateAndSync(b, i)
			}
			b.StopTimer()
			after := c.coord.Stats()
			b.ReportMetric(float64(after.StateBytes-before.StateBytes)/float64(b.N), "stateB/op")
			if got, want := after.Fetches-before.Fetches, uint64(b.N); got != want {
				b.Fatalf("fetches = %d, want %d (one node per sync)", got, want)
			}
		})
	}
}

// BenchmarkClusterQuery is the steady state: coordinator reads with no
// node writes in between. Every node answers 304 off one atomic load,
// no state moves, and the merge engine serves its published snapshot —
// the version-vector cache at work.
func BenchmarkClusterQuery(b *testing.B) {
	c := newBenchCluster(b, 3, 64<<10)
	if _, _, err := syncRead(context.Background(), c.coord); err != nil {
		b.Fatal(err)
	}
	before := c.coord.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := syncRead(context.Background(), c.coord); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := c.coord.Stats()
	if got := after.Fetches - before.Fetches; got != 0 {
		b.Fatalf("steady-state queries fetched %d states, want 0", got)
	}
	if got := after.StateBytes - before.StateBytes; got != 0 {
		b.Fatalf("steady-state queries moved %d bytes, want 0", got)
	}
}

// BenchmarkRoutedStream is one routed write as the bench's cluster
// workload sends it: a 10-frame stream of 256-update frames into a
// coordinator's server front over 3 nodes, acknowledged once every owner
// applied its shares. Frames are drawn off the clock from a 64k-key
// universe.
func BenchmarkRoutedStream(b *testing.B) {
	c := newBenchCluster(b, 3, 0)
	front := httptest.NewServer(server.NewWith(c.coord.Engine(),
		server.Config{Snapshots: c.coord, Ingest: c.coord, Cluster: c.coord}))
	defer front.Close()
	rng := rand.New(rand.NewSource(1))
	bursts := make([][][]engine.Update, 16)
	for i := range bursts {
		bursts[i] = make([][]engine.Update, 10)
		for f := range bursts[i] {
			frame := make([]engine.Update, 256)
			for j := range frame {
				frame[j] = engine.Update{Instance: j % 2, Key: uint64(rng.Intn(64 << 10)), Weight: 1 + rng.Float64()*1e3}
			}
			bursts[i][f] = frame
		}
	}
	ctx := context.Background()
	hc := front.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := streamclient.OpenStream(ctx, hc, front.URL)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range bursts[i%len(bursts)] {
			if err := s.Send(f); err != nil {
				break
			}
		}
		if sum, err := s.Close(); err != nil || sum.Updates != 2560 {
			b.Fatalf("routed stream: %+v, %v", sum, err)
		}
	}
}

// TestScatterGatherTransfersPerNodeState is the deterministic half of
// the BenchmarkScatterGather claim, free of timing: after a single-key
// write, the sync's wire traffic is at most the artifact header plus
// r·(k+1) entries of 16 bytes — the changed node's bottom-(k+1), no
// registry — and it is the same for 64k keys on 3 nodes as for 16k keys
// on 1 node: the cost does not depend on the key count.
func TestScatterGatherTransfersPerNodeState(t *testing.T) {
	perSync := func(nodes, totalKeys int) uint64 {
		c := newBenchCluster(t, nodes, totalKeys)
		const rounds = 4
		before := c.coord.Stats()
		for i := 0; i < rounds; i++ {
			c.mutateAndSync(t, i)
		}
		after := c.coord.Stats()
		if got, want := after.Fetches-before.Fetches, uint64(rounds); got != want {
			t.Fatalf("fetches = %d, want %d (one node per sync)", got, want)
		}
		return (after.StateBytes - before.StateBytes) / rounds
	}
	clusterBytes := perSync(3, 64<<10)
	singleBytes := perSync(1, 16<<10)
	bound := sketchBytes(benchConfig)
	if clusterBytes > uint64(bound) {
		t.Fatalf("per-sync transfer %d B for 64k/3-node cluster exceeds header + r·(k+1)·16 = %d B", clusterBytes, bound)
	}
	if clusterBytes != singleBytes {
		t.Fatalf("per-sync transfer %d B for 64k/3-node cluster vs %d B for single-16k: cost depends on key count",
			clusterBytes, singleBytes)
	}
	t.Logf("per-sync transfer: %d B for both (bound %d B)", clusterBytes, bound)
}
