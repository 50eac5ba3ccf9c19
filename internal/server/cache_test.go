package server

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
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

// TestSnapshotMaxStaleServesBoundedStale: with SnapshotMaxStale set, a
// read after an ingest may serve the previous cut (within the bound) —
// and an identically-fed exact server proves the data really changed.
func TestSnapshotMaxStaleServesBoundedStale(t *testing.T) {
	hash := sampling.NewSeedHash(7)
	newSrv := func(maxStale time.Duration) *httptest.Server {
		eng, err := engine.New(engine.Config{Instances: 2, K: 8, Shards: 4, Hash: hash})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewWith(eng, Config{SnapshotMaxStale: maxStale}))
		t.Cleanup(ts.Close)
		return ts
	}
	stale, exact := newSrv(time.Hour), newSrv(0)
	d := ladderDataset(t, 24)
	d2 := scaleDataset(t, d, 3)

	query := func(ts *httptest.Server) float64 { return lstarSum(t, ts.URL) }

	for _, ts := range []*httptest.Server{stale, exact} {
		ingestDataset(t, ts.URL, d)
	}
	first := query(stale)
	if got := query(exact); got != first {
		t.Fatalf("servers disagree before mutation: %v != %v", got, first)
	}
	for _, ts := range []*httptest.Server{stale, exact} {
		ingestDataset(t, ts.URL, d2)
	}
	// The exact server reflects the write immediately; the bounded-
	// staleness server keeps serving the cut from moments ago.
	exactAfter := query(exact)
	if exactAfter == first {
		t.Fatal("test is vacuous: mutation did not change the estimate")
	}
	if got := query(stale); got != first {
		t.Fatalf("bounded-staleness read %v, want stale %v", got, first)
	}
}
