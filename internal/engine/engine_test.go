package engine

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sampling"
)

// ingestMatrix feeds every positive entry of the dense weight matrix w
// (keys are column indices) into the engine, one Ingest each.
func ingestMatrix(t *testing.T, e *Engine, w [][]float64) {
	t.Helper()
	for i := range w {
		for j, x := range w[i] {
			if x > 0 {
				if err := e.Ingest(i, uint64(j), x); err != nil {
					t.Fatal(err)
				}
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
	ingestMatrix(t, e, d.W)
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
