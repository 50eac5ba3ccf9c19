package engine

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/funcs"
	"repro/internal/sampling"
)

// ingestDataset feeds every positive entry of d into the engine in the
// order produced by perm (nil = natural order), optionally preceded by a
// dominated duplicate (half weight) to exercise max-weight semantics.
func ingestDataset(t *testing.T, e *Engine, d dataset.Dataset, perm []int, dominated bool) {
	t.Helper()
	type upd struct {
		i, k int
	}
	var all []upd
	for i := 0; i < d.R(); i++ {
		for k := 0; k < d.N(); k++ {
			if d.W[i][k] > 0 {
				all = append(all, upd{i, k})
			}
		}
	}
	order := perm
	if order == nil {
		order = make([]int, len(all))
		for j := range order {
			order[j] = j
		}
	}
	for _, j := range order {
		u := all[j]
		w := d.W[u.i][u.k]
		if dominated {
			if err := e.Ingest(u.i, uint64(u.k), w/2); err != nil {
				t.Fatalf("Ingest(dominated): %v", err)
			}
		}
		if err := e.Ingest(u.i, uint64(u.k), w); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		if dominated {
			// A late dominated update must also be a no-op.
			if err := e.Ingest(u.i, uint64(u.k), w*0.9); err != nil {
				t.Fatalf("Ingest(late dominated): %v", err)
			}
		}
	}
}

// requireEqualSamples asserts outcome-level equality between a snapshot
// and a batch coordinated sample over items 0..n-1.
func requireEqualSamples(t *testing.T, snap Snapshot, batch dataset.CoordinatedSample) {
	t.Helper()
	if got, want := len(snap.Sample.Outcomes), len(batch.Outcomes); got != want {
		t.Fatalf("snapshot has %d outcomes, batch has %d", got, want)
	}
	for j, o := range snap.Sample.Outcomes {
		if snap.Keys[j] != uint64(j) {
			t.Fatalf("snapshot key[%d] = %d, want %d", j, snap.Keys[j], j)
		}
		b := batch.Outcomes[j]
		if !o.Same(b) {
			t.Fatalf("item %d: snapshot outcome %+v != batch outcome %+v", j, o, b)
		}
		for i := range o.Scheme.Tau {
			if o.Scheme.Tau[i] != b.Scheme.Tau[i] {
				t.Fatalf("item %d instance %d: tau %g != batch tau %g", j, i, o.Scheme.Tau[i], b.Scheme.Tau[i])
			}
		}
	}
	if snap.Sample.SampledEntries != batch.SampledEntries {
		t.Errorf("SampledEntries = %d, batch %d", snap.Sample.SampledEntries, batch.SampledEntries)
	}
	if snap.Sample.TotalEntries != batch.TotalEntries {
		t.Errorf("TotalEntries = %d, batch %d", snap.Sample.TotalEntries, batch.TotalEntries)
	}
}

// requireEqualEstimates asserts bit-identical L*/U*/HT sums and Jaccard.
func requireEqualEstimates(t *testing.T, snap Snapshot, batch dataset.CoordinatedSample) {
	t.Helper()
	f, err := funcs.NewRG(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []dataset.EstimatorKind{dataset.KindLStar, dataset.KindUStar, dataset.KindHT} {
		got, err := snap.Sample.EstimateSum(f, kind, nil)
		if err != nil {
			t.Fatalf("snapshot EstimateSum(%v): %v", kind, err)
		}
		want, err := batch.EstimateSum(f, kind, nil)
		if err != nil {
			t.Fatalf("batch EstimateSum(%v): %v", kind, err)
		}
		if got != want {
			t.Errorf("%v sum: snapshot %v != batch %v", kind, got, want)
		}
	}
	if got, want := funcs.JaccardEstimate(snap.Sample.Outcomes), funcs.JaccardEstimate(batch.Outcomes); got != want {
		t.Errorf("Jaccard: snapshot %v != batch %v", got, want)
	}
}

func testDatasets(t *testing.T) map[string]dataset.Dataset {
	t.Helper()
	return map[string]dataset.Dataset{
		"example1": dataset.Example1(),
		"stable":   dataset.Stable(dataset.StableConfig{N: 200, Churn: 0.1, Seed: 7}),
		"flows":    dataset.Flows(dataset.FlowsConfig{N: 300, Seed: 11}),
	}
}

func TestSnapshotMatchesBatchBottomK(t *testing.T) {
	for _, d := range testDatasets(t) {
		for _, k := range []int{1, 2, 5, 64, 1000} {
			for _, shards := range []int{1, 3, 16} {
				hash := sampling.NewSeedHash(uint64(42 + k))
				e, err := New(Config{Instances: d.R(), K: k, Shards: shards, Hash: hash})
				if err != nil {
					t.Fatal(err)
				}
				ingestDataset(t, e, d, nil, false)
				batch, err := dataset.SampleBottomK(d, k, hash)
				if err != nil {
					t.Fatal(err)
				}
				snap := e.Snapshot()
				requireEqualSamples(t, snap, batch)
				// The U* solver dominates runtime; check estimate-level
				// equality on one configuration per dataset.
				if k == 5 && shards == 16 {
					requireEqualEstimates(t, snap, batch)
				}
			}
		}
	}
}

func TestSnapshotOrderAndDuplicateInvariance(t *testing.T) {
	d := dataset.Flows(dataset.FlowsConfig{N: 250, Seed: 3})
	hash := sampling.NewSeedHash(99)
	batch, err := dataset.SampleBottomK(d, 8, hash)
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for i := 0; i < d.R(); i++ {
		for k := 0; k < d.N(); k++ {
			if d.W[i][k] > 0 {
				entries++
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3; trial++ {
		e, err := New(Config{Instances: d.R(), K: 8, Shards: 4, Hash: hash})
		if err != nil {
			t.Fatal(err)
		}
		ingestDataset(t, e, d, rng.Perm(entries), true)
		requireEqualSamples(t, e.Snapshot(), batch)
	}
}

func TestIngestBatchMatchesSingle(t *testing.T) {
	d := dataset.Stable(dataset.StableConfig{N: 150, Churn: 0.2, Seed: 13})
	hash := sampling.NewSeedHash(7)
	var updates []Update
	for i := 0; i < d.R(); i++ {
		for k := 0; k < d.N(); k++ {
			updates = append(updates, Update{Instance: i, Key: uint64(k), Weight: d.W[i][k]})
		}
	}
	e, err := New(Config{Instances: d.R(), K: 12, Shards: 8, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(updates); err != nil {
		t.Fatal(err)
	}
	batch, err := dataset.SampleBottomK(d, 12, hash)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualSamples(t, e.Snapshot(), batch)
	if got := e.Stats().Ingests; got == 0 {
		t.Error("Stats().Ingests = 0 after batch ingest")
	}
}

func TestConcurrentIngest(t *testing.T) {
	d := dataset.Flows(dataset.FlowsConfig{N: 400, Seed: 21})
	hash := sampling.NewSeedHash(17)
	e, err := New(Config{Instances: d.R(), K: 10, Shards: 8, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	var wg sync.WaitGroup
	for wID := 0; wID < writers; wID++ {
		wg.Add(1)
		go func(wID int) {
			defer wg.Done()
			// Each writer replays the whole dataset in a different order;
			// max-weight semantics make the replays idempotent.
			rng := rand.New(rand.NewSource(int64(wID)))
			for _, j := range rng.Perm(d.R() * d.N()) {
				i, k := j/d.N(), j%d.N()
				if w := d.W[i][k]; w > 0 {
					if err := e.Ingest(i, uint64(k), w*(0.5+0.5*rng.Float64())); err != nil {
						t.Error(err)
						return
					}
					if err := e.Ingest(i, uint64(k), w); err != nil {
						t.Error(err)
						return
					}
				}
			}
			// Interleave snapshots with writes to exercise the locking.
			_ = e.Snapshot()
		}(wID)
	}
	wg.Wait()
	batch, err := dataset.SampleBottomK(d, 10, hash)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualSamples(t, e.Snapshot(), batch)
}

func TestIngestValidation(t *testing.T) {
	e, err := New(Config{Instances: 2, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		instance int
		weight   float64
	}{
		{"negative instance", -1, 1},
		{"instance too large", 2, 1},
		{"negative weight", 0, -0.5},
		{"nan weight", 0, math.NaN()},
		{"inf weight", 0, math.Inf(1)},
	} {
		if err := e.Ingest(tc.instance, 1, tc.weight); err == nil {
			t.Errorf("%s: Ingest accepted invalid input", tc.name)
		}
		if err := e.IngestBatch([]Update{{Instance: tc.instance, Key: 1, Weight: tc.weight}}); err == nil {
			t.Errorf("%s: IngestBatch accepted invalid input", tc.name)
		}
	}
	if err := e.Ingest(0, 1, 0); err != nil {
		t.Errorf("zero weight should be an accepted no-op, got %v", err)
	}
	if got := e.Stats().Keys; got != 0 {
		t.Errorf("zero-weight ingest created %d keys", got)
	}
}

func TestNewValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Instances: 0, K: 1},
		{Instances: 1, K: 0},
		{Instances: 1, K: 1, Shards: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
	e, err := New(Config{Instances: 1, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Config().Shards; got != 16 {
		t.Errorf("default shards = %d, want 16", got)
	}
}

func TestStats(t *testing.T) {
	d := dataset.Example1()
	hash := sampling.NewSeedHash(1)
	e, err := New(Config{Instances: d.R(), K: 2, Shards: 2, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	ingestDataset(t, e, d, nil, false)
	st := e.Stats()
	if st.Keys != d.N() {
		t.Errorf("Stats().Keys = %d, want %d", st.Keys, d.N())
	}
	batch, err := dataset.SampleBottomK(d, 2, hash)
	if err != nil {
		t.Fatal(err)
	}
	if st.ActiveEntries != batch.TotalEntries {
		t.Errorf("Stats().ActiveEntries = %d, want %d", st.ActiveEntries, batch.TotalEntries)
	}
	if st.RetainedEntries == 0 || st.RetainedEntries > st.Instances*(st.K+1)*st.Shards {
		t.Errorf("Stats().RetainedEntries = %d outside sketch bounds", st.RetainedEntries)
	}
	if st.Ingests == 0 {
		t.Error("Stats().Ingests = 0")
	}
}

func TestSnapshotExtremeWeights(t *testing.T) {
	// Near-overflow weights push ranks into the subnormal range where
	// 1/t overflows; both reduction paths must clamp identically instead
	// of panicking (engine) or erroring (batch). Subnormal weights push
	// ranks past the largest float to +Inf: such entries sit in non-full
	// heaps on several shards, and the thresholds must leave them out as
	// KSmallest does — here instance 0 retains fewer than k finite ranks
	// and instance 1 exactly k.
	const tiny = 5e-324
	for _, tc := range []struct {
		name      string
		w         [][]float64
		k, shards int
	}{
		{"near-overflow", [][]float64{{1e308, 1e308, 1e308}}, 1, 2},
		{"subnormal", [][]float64{
			{2, tiny, 3, tiny, tiny, 1e308, tiny, tiny},
			{tiny, tiny, 1, tiny, 4, 7, 2, tiny},
		}, 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hash := sampling.NewSeedHash(2)
			e := rebuildEngine(t, tc.w, tc.k, tc.shards, hash)
			requireMatchesMatrix(t, e, tc.w, tc.k, hash) // must not panic
			requireBatchThresholds(t, e)
		})
	}
}

func TestStringKeyCoordination(t *testing.T) {
	// The HTTP layer addresses items by name; string keys must hash to
	// the same seeds UString produces so sketches stay coordinated with
	// any other consumer of the same salt.
	h := sampling.NewSeedHash(5)
	for _, s := range []string{"", "a", "flow:10.0.0.1", "surname/Smith"} {
		if got, want := h.U(sampling.StringKey(s)), h.UString(s); got != want {
			t.Errorf("U(StringKey(%q)) = %g, UString = %g", s, got, want)
		}
	}
}
