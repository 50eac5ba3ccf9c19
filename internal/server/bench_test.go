package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
func do(b *testing.B, s *Server, method, target string, body []byte) {
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
// estimators — compare against the engine-level BenchmarkQuerySum, which
// pays a fresh reduction plus a full L* sum per query.
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
// and estimate — the regime the -snapshot-max-stale bound is for. With
// per-shard partitions the rebuild re-reduces only the hot key's shard
// and the estimate re-runs only over it (per-partition estimate cache),
// so this sits close to the cached path rather than the cold reduction.
func BenchmarkQueryInvalidated(b *testing.B) {
	s := newBenchServer(b, 1<<14)
	query := benchQuery(b, lstarRG1)
	// Prime partitions, plan and estimate vectors: the measurement is
	// steady-state invalidation, not the one-off cold reduction.
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
