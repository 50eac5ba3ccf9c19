package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sampling"
)

// newBenchServer returns a server over an engine pre-loaded with a
// heavy-tailed two-instance workload of n keys.
func newBenchServer(b *testing.B, n int) *Server {
	b.Helper()
	eng, err := engine.New(engine.Config{Instances: 2, K: 64, Shards: 16, Hash: sampling.NewSeedHash(1)})
	if err != nil {
		b.Fatal(err)
	}
	d := dataset.Flows(dataset.FlowsConfig{N: n, Seed: 1})
	var updates []engine.Update
	for i := 0; i < d.R(); i++ {
		for k := 0; k < d.N(); k++ {
			if d.W[i][k] > 0 {
				updates = append(updates, engine.Update{Instance: i, Key: uint64(k), Weight: d.W[i][k]})
			}
		}
	}
	if err := eng.IngestBatch(updates); err != nil {
		b.Fatal(err)
	}
	return New(eng)
}

// do drives one request through the handler without network overhead.
func do(b testing.TB, s *Server, method, target string, body []byte) {
	b.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		b.Fatalf("%s %s: status %d body %s", method, target, w.Code, w.Body.String())
	}
}

// benchQuery encodes a POST /v1/query body of the given specs.
func benchQuery(b *testing.B, specs ...map[string]any) []byte {
	b.Helper()
	body, err := json.Marshal(map[string]any{"queries": specs})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// lstarRG1 is the one-query request the single-estimate benchmarks send.
var lstarRG1 = map[string]any{"func": "rg", "p": 1, "estimator": "lstar"}

// BenchmarkQueryCached is the acceptance benchmark for the versioned
// snapshot cache: the steady-state cached read path (no intervening
// ingest) takes no shard locks, re-reduces nothing and re-runs no
// estimators, and a repeated body is answered with the memo's stored
// bytes, neither decoded, planned nor encoded — compare against the
// engine-level BenchmarkQuerySum, which pays a fresh reduction plus a
// full L* sum per query.
func BenchmarkQueryCached(b *testing.B) {
	s := newBenchServer(b, 1<<14)
	body := benchBatch(b)
	b.Run("estimate_sum", func(b *testing.B) {
		one := benchQuery(b, lstarRG1)
		// Prime snapshot cache and memo: the measurement is the steady
		// state, not the one-off reduction.
		do(b, s, http.MethodPost, "/v1/query", one)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			do(b, s, http.MethodPost, "/v1/query", one)
		}
	})
	b.Run("batched4", func(b *testing.B) {
		do(b, s, http.MethodPost, "/v1/query", body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			do(b, s, http.MethodPost, "/v1/query", body)
		}
		b.ReportMetric(4, "queries/op")
	})
}

// BenchmarkQueryInvalidated measures the write-invalidated read path:
// every iteration lands one real ingest, so each query pays a rebuild
// and estimate. The rebuild cuts and reduces every shard's retained
// entries (not the key registry) and the estimate walks only the sampled
// outcomes, so this costs what the sketches hold, not the cold reduction.
func BenchmarkQueryInvalidated(b *testing.B) {
	s := newBenchServer(b, 1<<14)
	query := benchQuery(b, lstarRG1)
	// Prime the merged keys: the measurement is steady-state invalidation,
	// not the one-off cold reduction.
	do(b, s, http.MethodPost, "/v1/query", query)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Strictly growing weight on one hot key: always a real mutation.
		ingest, err := json.Marshal(map[string]any{
			"updates": []map[string]any{{"instance": 0, "key": "hot", "weight": float64(i + 1)}},
		})
		if err != nil {
			b.Fatal(err)
		}
		do(b, s, http.MethodPost, "/v1/ingest", ingest)
		do(b, s, http.MethodPost, "/v1/query", query)
	}
}

// benchSpecs are the four statistics the contrast benchmarks share: two
// sum estimators, a second function, and a Jaccard.
var benchSpecs = []map[string]any{
	lstarRG1,
	{"func": "rg", "p": 1, "estimator": "ht"},
	{"func": "max", "estimator": "lstar"},
	{"statistic": "jaccard"},
}

// benchBatch is benchSpecs as one batched request — one snapshot total.
func benchBatch(b *testing.B) []byte { return benchQuery(b, benchSpecs...) }

// BenchmarkQueryBatched4 measures four statistics answered from ONE shared
// snapshot via POST /v1/query.
func BenchmarkQueryBatched4(b *testing.B) {
	s := newBenchServer(b, 1<<14)
	body := benchBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do(b, s, http.MethodPost, "/v1/query", body)
	}
	b.ReportMetric(4, "queries/op")
}

// BenchmarkQuerySequential4 measures the same four statistics as separate
// one-query requests — four snapshots — to quantify what batching saves.
func BenchmarkQuerySequential4(b *testing.B) {
	s := newBenchServer(b, 1<<14)
	var bodies [][]byte
	for _, spec := range benchSpecs {
		bodies = append(bodies, benchQuery(b, spec))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			do(b, s, http.MethodPost, "/v1/query", body)
		}
	}
	b.ReportMetric(4, "queries/op")
}

// churnRig is the universe-independence guard's workload, the repository
// benchmark's query-churn in-process at any universe size: u keys fully
// preloaded in both instances with Zipf(1.1)-shaped weights (k = 256,
// 16 shards), then bursts of 512 Zipf-popular events, each carrying the
// key's CUMULATIVE weight in both instances (so every burst is a real
// mutation over a fixed key set), each followed by an exact view and the
// four dashboard queries.
type churnRig struct {
	s     *Server
	zipf  *rand.Zipf
	rng   *rand.Rand
	keys  []uint64 // item key by Zipf index
	total [2][]float64
	burst []engine.Update
	dash  []byte
}

// newChurnRig builds the rig over the ids 0..u-1 as keys, the repository
// benchmark's key shape.
func newChurnRig(tb testing.TB, u int) *churnRig { return newKeyedChurnRig(tb, u, idKey) }

// idKey keys item k by its id.
func idKey(k int) uint64 { return uint64(k) }

// hashedKey is the key the HTTP layer derives for an item named "item-k":
// a 64-bit hash on which every byte varies, unlike dense ids, whose high
// bytes all agree.
func hashedKey(k int) uint64 { return sampling.StringKey("item-" + strconv.Itoa(k)) }

func newKeyedChurnRig(tb testing.TB, u int, keyOf func(int) uint64) *churnRig {
	tb.Helper()
	eng, err := engine.New(engine.Config{Instances: 2, K: 256, Shards: 16, Hash: sampling.NewSeedHash(1)})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	g := &churnRig{s: New(eng), rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(u-1)), keys: make([]uint64, u), burst: make([]engine.Update, 1024)}
	preload := make([]engine.Update, 0, 2*u)
	for i := range g.total {
		g.total[i] = make([]float64, u)
	}
	for k := 0; k < u; k++ {
		g.keys[k] = keyOf(k)
		w := (rng.ExpFloat64() + 1e-6) * (1 + float64(u)*math.Pow(1+float64(k), -1.1))
		g.total[0][k], g.total[1][k] = w, w*(0.95+0.1*rng.Float64())
		for i := range g.total {
			preload = append(preload, engine.Update{Instance: i, Key: g.keys[k], Weight: g.total[i][k]})
		}
	}
	if err := eng.IngestBatch(preload); err != nil {
		tb.Fatal(err)
	}
	g.dash, err = json.Marshal(map[string]any{"queries": []map[string]any{
		{"func": "rg", "p": 1, "estimator": "lstar"},
		{"func": "rg", "p": 2, "estimator": "lstar"},
		{"func": "rgplus", "p": 1, "estimator": "lstar"},
		{"statistic": "jaccard", "estimator": "lstar"},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	g.serve(tb) // the cold reduction and key merge are set-up, not churn
	return g
}

// write lands one burst.
func (g *churnRig) write(tb testing.TB) {
	for j := 0; j < len(g.burst); j += 2 {
		k := g.zipf.Uint64()
		inc := g.rng.ExpFloat64()
		for i := range g.total {
			g.total[i][k] += inc
			g.burst[j+i] = engine.Update{Instance: i, Key: g.keys[k], Weight: g.total[i][k]}
		}
	}
	if err := g.s.eng.IngestBatch(g.burst); err != nil {
		tb.Fatal(err)
	}
}

// serve rebuilds the view and answers the dash from it.
func (g *churnRig) serve(tb testing.TB) {
	g.s.eng.FreshView()
	do(tb, g.s, http.MethodPost, "/v1/query", g.dash)
}

// BenchmarkChurnServe sweeps the key universe under a fixed sketch size:
// what a write-invalidated read costs must depend on what the sketches
// hold (r·(k+1) entries a shard), not on how many keys were ever seen.
// The "-hashed" cases repeat the sweep with hashed keys, on which the
// rebuild's key radix skips no byte.
func BenchmarkChurnServe(b *testing.B) {
	for _, hashed := range []bool{false, true} {
		for _, u := range []int{1 << 16, 1 << 18, 1 << 20} {
			name, keyOf := fmt.Sprintf("U=%d", u), idKey
			if hashed {
				name, keyOf = name+"-hashed", hashedKey
			}
			b.Run(name, func(b *testing.B) {
				g := newKeyedChurnRig(b, u, keyOf)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g.write(b)
					g.serve(b)
				}
			})
		}
	}
}

// TestChurnServeAllocIsUniverseIndependent is BenchmarkChurnServe's claim
// in a form that needs no quiet host: the bytes one (rebuild + dash)
// allocates after a burst agree within 10 % between a 64k-key and a
// 256k-key universe.
func TestChurnServeAllocIsUniverseIndependent(t *testing.T) {
	perOp := func(u int) float64 {
		g := newChurnRig(t, u)
		const ops = 8
		var before, after runtime.MemStats
		var total uint64
		for i := 0; i < ops; i++ {
			g.write(t)
			runtime.ReadMemStats(&before)
			g.serve(t)
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
		return float64(total) / ops
	}
	small, large := perOp(1<<16), perOp(1<<18)
	t.Logf("bytes per rebuild + dash: %.0f at U=64k, %.0f at U=256k", small, large)
	if math.Abs(large-small) > 0.1*small {
		t.Errorf("rebuild + dash allocates %.0f B at U=256k vs %.0f B at U=64k: the read path scales with the key universe", large, small)
	}
}

// BenchmarkIngestEndpoint measures the HTTP ingest path end to end.
func BenchmarkIngestEndpoint(b *testing.B) {
	s := newBenchServer(b, 1<<10)
	body, err := json.Marshal(map[string]any{
		"updates": []map[string]any{
			{"instance": 0, "key": "alpha", "weight": 0.9},
			{"instance": 1, "key": "alpha", "weight": 0.5},
			{"instance": 0, "key": "beta", "weight": 0.2},
			{"instance": 1, "key": "gamma", "weight": 1.4},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do(b, s, http.MethodPost, "/v1/ingest", body)
	}
}
