package server

import (
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/estreg"
	"repro/internal/funcs"
	"repro/internal/sampling"
)

// scaleDataset returns d with every weight multiplied by c — re-ingesting
// it over the original exercises max-weight overwrites that change every
// estimate deterministically.
func scaleDataset(t *testing.T, d dataset.Dataset, c float64) dataset.Dataset {
	t.Helper()
	w := make([][]float64, d.R())
	for i := range w {
		w[i] = make([]float64, d.N())
		for k := range w[i] {
			w[i][k] = c * d.W[i][k]
		}
	}
	scaled, err := dataset.New(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	return scaled
}

// lstarSum reads the whole-dataset L* RG1 sum through POST /v1/query.
func lstarSum(t *testing.T, base string) float64 {
	t.Helper()
	_, res := queryOne(t, base, map[string]any{"func": "rg", "p": 1, "estimator": "lstar"})
	if code := queryErrCode(res); code != "" {
		t.Fatalf("query failed: %v", res)
	}
	return res["estimate"].(float64)
}

func lstarSumOf(t *testing.T, d dataset.Dataset, hash sampling.SeedHash) float64 {
	t.Helper()
	batch, err := dataset.SampleBottomK(d, 8, hash)
	if err != nil {
		t.Fatal(err)
	}
	f, err := funcs.NewRG(1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch.EstimateSum(f, dataset.KindLStar, nil)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestCachedServingStaysExact: with the default (exact) snapshot cache,
// repeat queries reuse the cached snapshot and memoized results, and any
// real ingest invalidates both — estimates always match the batch
// pipeline bit-for-bit on the engine's current contents.
func TestCachedServingStaysExact(t *testing.T) {
	ts, hash := newTestServer(t)
	d := ladderDataset(t, 40)
	ingestDataset(t, ts.URL, d)

	want1 := lstarSumOf(t, d, hash)
	for rep := 0; rep < 3; rep++ {
		if got := lstarSum(t, ts.URL); got != want1 {
			t.Fatalf("rep %d: estimate %v, want %v", rep, got, want1)
		}
	}

	// Mutate: double every weight (max semantics fold the overwrite in).
	d2 := scaleDataset(t, d, 2)
	ingestDataset(t, ts.URL, d2)
	want2 := lstarSumOf(t, d2, hash)
	if want1 == want2 {
		t.Fatal("test is vacuous: scaled dataset gives the same estimate")
	}
	if got := lstarSum(t, ts.URL); got != want2 {
		t.Fatalf("post-ingest estimate %v, want %v (cache not invalidated?)", got, want2)
	}
}

// countingEstimator counts its per-outcome evaluations; the first one
// waits for gate, holding its sum in flight for as long as a test needs.
type countingEstimator struct {
	calls *atomic.Int64
	gate  *sync.WaitGroup
}

func (countingEstimator) Name() string { return "counting" }

func (e countingEstimator) Estimate(o sampling.TupleOutcome) (float64, error) {
	if e.calls.Add(1) == 1 {
		e.gate.Wait()
	}
	return o.Rho, nil
}

// TestEvalMemoizedSingleFlight: N concurrent askers of one (version,
// query) — the push round and the dashes behind it — cost exactly one
// evaluation. The first evaluation is held in flight until every asker
// has set off, so without single-flight each of them would find the memo
// empty and evaluate too.
func TestEvalMemoizedSingleFlight(t *testing.T) {
	const askers = 8
	var calls atomic.Int64
	var setOff sync.WaitGroup
	reg := estreg.Default()
	if err := reg.Register("counting", func(string, funcs.F, int) (estreg.Estimator, estreg.Meta, error) {
		return countingEstimator{&calls, &setOff}, estreg.Meta{Estimator: "counting"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Instances: 2, K: 8, Shards: 4, Hash: sampling.NewSeedHash(7)})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWith(eng, Config{Registry: reg})
	for key := uint64(0); key < 40; key++ {
		if err := eng.Ingest(int(key%2), key, float64(1+key)); err != nil {
			t.Fatal(err)
		}
	}
	q, err := s.newPlanner().plan(querySpec{Estimator: "counting"})
	if err != nil {
		t.Fatal(err)
	}
	view := eng.FreshView()
	memo := s.memoFor(view.Version)

	results := make([]queryResult, askers)
	var done sync.WaitGroup
	setOff.Add(askers)
	for i := range results {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			setOff.Done()
			results[i] = s.evalMemoized(q, view, memo)
		}(i)
	}
	done.Wait()
	// The estimator declares nothing, so one evaluation is one call per key.
	if got, want := calls.Load(), int64(len(view.Keys)); got != want {
		t.Errorf("%d askers cost %d per-item evaluations, want one sum's %d", askers, got, want)
	}
	for i, r := range results {
		if r.Error != nil || r.Items != len(view.Keys) || !reflect.DeepEqual(r, results[0]) {
			t.Errorf("asker %d got %+v, asker 0 %+v", i, r, results[0])
		}
	}
}

// TestMemoStaysCapped fills one version's memo past maxMemoEntries with
// distinct selections: the memo_entries gauge stops at the cap, and
// queries beyond it — recorded or not — still answer, and answer the same.
func TestMemoStaysCapped(t *testing.T) {
	ts, _ := newTestServer(t)
	const n = 72 // n·(n−1) ordered id pairs > maxMemoEntries
	ingestDataset(t, ts.URL, ladderDataset(t, n))
	pair := func(i int) map[string]any {
		return map[string]any{"estimator": "lstar", "ids": []int{i / (n - 1), (i/(n-1) + 1 + i%(n-1)) % n}}
	}
	memoEntries := func() int {
		_, body := getJSON(t, ts.URL+"/v1/stats")
		return int(body["memo_entries"].(float64))
	}
	first, _ := queryOne(t, ts.URL, pair(0))
	if got := memoEntries(); got != 1 {
		t.Fatalf("memo_entries = %d after one query, want 1", got)
	}
	for i := 1; i < maxMemoEntries+2*maxBatchQueries; i += maxBatchQueries {
		batch := make([]map[string]any, maxBatchQueries)
		for j := range batch {
			batch[j] = pair(i + j)
		}
		resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"queries": batch})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch at %d: status %d body %v", i, resp.StatusCode, body)
		}
		for j, r := range body["results"].([]any) {
			if code := queryErrCode(r.(map[string]any)); code != "" {
				t.Fatalf("query %d failed past %d memo entries: %v", i+j, memoEntries(), r)
			}
		}
	}
	if got := memoEntries(); got != maxMemoEntries {
		t.Fatalf("memo_entries = %d after %d distinct queries, want the cap %d", got, maxMemoEntries+2*maxBatchQueries, maxMemoEntries)
	}
	// An unrecorded query and a recorded one answer the same either way.
	beyond, _ := queryOne(t, ts.URL, pair(maxMemoEntries+maxBatchQueries))
	again, _ := queryOne(t, ts.URL, pair(maxMemoEntries+maxBatchQueries))
	if !reflect.DeepEqual(beyond["results"], again["results"]) {
		t.Errorf("unrecorded query answered %v then %v", beyond["results"], again["results"])
	}
	if refirst, _ := queryOne(t, ts.URL, pair(0)); !reflect.DeepEqual(first["results"], refirst["results"]) {
		t.Errorf("recorded query answered %v then %v", first["results"], refirst["results"])
	}
}
