package engine

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/sampling"
)

// equalSnapshots asserts two snapshots carry identical information:
// same keys, bit-identical outcomes (seed, knowledge, values, tau) and
// the same bookkeeping.
func equalSnapshots(t *testing.T, a, b Snapshot) {
	t.Helper()
	if len(a.Keys) != len(b.Keys) {
		t.Fatalf("key counts %d != %d", len(a.Keys), len(b.Keys))
	}
	for j := range a.Keys {
		if a.Keys[j] != b.Keys[j] {
			t.Fatalf("key[%d] = %d != %d", j, a.Keys[j], b.Keys[j])
		}
		if !a.Sample.Outcomes[j].Same(b.Sample.Outcomes[j]) {
			t.Fatalf("item %d: outcome %+v != %+v", j, a.Sample.Outcomes[j], b.Sample.Outcomes[j])
		}
	}
	if a.Sample.SampledEntries != b.Sample.SampledEntries {
		t.Errorf("SampledEntries %d != %d", a.Sample.SampledEntries, b.Sample.SampledEntries)
	}
	if a.Sample.TotalEntries != b.Sample.TotalEntries {
		t.Errorf("TotalEntries %d != %d", a.Sample.TotalEntries, b.Sample.TotalEntries)
	}
}

// cachedSnapshot materializes CachedView's snapshot alongside the version
// of the cut it came from.
func cachedSnapshot(e *Engine, maxStale time.Duration) (Snapshot, uint64) {
	v := e.CachedView(maxStale)
	return v.Snapshot(), v.Version
}

// sharedBacking reports whether two snapshots are the same reduction (the
// cache handed out one value twice) by comparing backing array pointers.
func sharedBacking(a, b Snapshot) bool {
	if len(a.Keys) == 0 || len(b.Keys) == 0 {
		return len(a.Keys) == len(b.Keys)
	}
	return &a.Keys[0] == &b.Keys[0] && &a.Sample.Outcomes[0].Known[0] == &b.Sample.Outcomes[0].Known[0]
}

func TestVersionCounting(t *testing.T) {
	e, err := New(Config{Instances: 2, K: 4, Shards: 4, Hash: sampling.NewSeedHash(3)})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Version(); got != 0 {
		t.Fatalf("fresh engine version = %d, want 0", got)
	}
	if err := e.Ingest(0, 7, 1.5); err != nil {
		t.Fatal(err)
	}
	if got := e.Version(); got != 1 {
		t.Fatalf("version after one ingest = %d, want 1", got)
	}
	// Zero weights and rejected updates must NOT bump the version.
	if err := e.Ingest(0, 8, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(-1, 8, 1); err == nil {
		t.Fatal("invalid instance accepted")
	}
	if got := e.Version(); got != 1 {
		t.Fatalf("version after no-ops = %d, want 1", got)
	}
	// IngestBatch bumps by the number of non-zero updates.
	if err := e.IngestBatch([]Update{
		{Instance: 0, Key: 9, Weight: 2},
		{Instance: 1, Key: 9, Weight: 0}, // zero: skipped
		{Instance: 1, Key: 10, Weight: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if got := e.Version(); got != 3 {
		t.Fatalf("version after batch = %d, want 3", got)
	}
	// An all-zero batch is a complete no-op.
	if err := e.IngestBatch([]Update{{Instance: 0, Key: 11, Weight: 0}}); err != nil {
		t.Fatal(err)
	}
	if got := e.Version(); got != 3 {
		t.Fatalf("version after all-zero batch = %d, want 3", got)
	}
	// A dominated duplicate (max semantics: weight ≤ the retained one)
	// changes no snapshot-visible state, so it counts as traffic but NOT
	// as a mutation — the cached snapshot survives duplicate-heavy
	// streams.
	snapBefore, _ := cachedSnapshot(e, 0)
	if err := e.Ingest(0, 7, 0.1); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Version != 3 || st.Ingests != 4 {
		t.Fatalf("Stats version/ingests = %d/%d, want 3/4", st.Version, st.Ingests)
	}
	snapAfter, _ := cachedSnapshot(e, 0)
	if !sharedBacking(snapBefore, snapAfter) {
		t.Fatal("dominated duplicate invalidated the cache")
	}
	// A weight increase on the same entry IS a mutation.
	if err := e.Ingest(0, 7, 5); err != nil {
		t.Fatal(err)
	}
	if got := e.Version(); got != 4 {
		t.Fatalf("version after weight increase = %d, want 4", got)
	}
}

func TestCachedSnapshotReuseAndInvalidation(t *testing.T) {
	d := dataset.Flows(dataset.FlowsConfig{N: 300, Seed: 11})
	hash := sampling.NewSeedHash(42)
	e, err := New(Config{Instances: d.R(), K: 8, Shards: 8, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	ingestMatrix(t, e, d.W)

	c1, v1 := cachedSnapshot(e, 0)
	c2, v2 := cachedSnapshot(e, 0)
	if v1 != v2 {
		t.Fatalf("versions differ without mutation: %d != %d", v1, v2)
	}
	if !sharedBacking(c1, c2) {
		t.Fatal("repeat CachedView rebuilt instead of reusing")
	}
	// A zero-weight ingest must not invalidate the cache.
	if err := e.Ingest(0, 12345, 0); err != nil {
		t.Fatal(err)
	}
	c3, v3 := cachedSnapshot(e, 0)
	if v3 != v1 || !sharedBacking(c1, c3) {
		t.Fatal("zero-weight no-op invalidated the cache")
	}
	// The cached snapshot is bit-identical to a fresh reduction and to
	// the batch sampler.
	batch, err := dataset.SampleBottomK(d, 8, hash)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualSamples(t, c1, batch)

	// A real mutation invalidates: new version, new reduction, and the
	// new cut is again bit-identical to batch on the mutated data.
	d2 := dataset.Flows(dataset.FlowsConfig{N: 300, Seed: 12})
	ingestMatrix(t, e, d2.W)
	c4, v4 := cachedSnapshot(e, 0)
	if v4 <= v1 {
		t.Fatalf("version did not advance: %d <= %d", v4, v1)
	}
	if sharedBacking(c1, c4) {
		t.Fatal("mutated engine served the stale snapshot at maxStale=0")
	}
	equalSnapshots(t, c4, e.Snapshot())
}

func TestSnapshotPublishesToCache(t *testing.T) {
	e, err := New(Config{Instances: 2, K: 4, Shards: 2, Hash: sampling.NewSeedHash(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	fresh := e.Snapshot()
	cached, _ := cachedSnapshot(e, 0)
	if !sharedBacking(fresh, cached) {
		t.Fatal("Snapshot() did not publish its reduction to the cache")
	}
}

func TestCachedSnapshotMaxStale(t *testing.T) {
	e, err := New(Config{Instances: 2, K: 4, Shards: 4, Hash: sampling.NewSeedHash(9)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	old, vOld := cachedSnapshot(e, 0)
	if err := e.Ingest(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	// Within the staleness bound the old cut is served even though the
	// version moved on.
	stale, vStale := cachedSnapshot(e, time.Hour)
	if vStale != vOld || !sharedBacking(old, stale) {
		t.Fatal("bounded-staleness read did not reuse the recent snapshot")
	}
	// An exact read re-reduces and refreshes the cache for everyone.
	exact, vExact := cachedSnapshot(e, 0)
	if vExact <= vOld || sharedBacking(old, exact) {
		t.Fatal("exact read served a stale snapshot")
	}
	after, vAfter := cachedSnapshot(e, time.Hour)
	if vAfter != vExact || !sharedBacking(exact, after) {
		t.Fatal("staleness-bounded read ignored the refreshed cache")
	}
}

// TestCachedSnapshotConcurrent exercises the lock-free read path under
// concurrent ingest with -race: readers must always observe internally
// consistent snapshots and monotone versions.
func TestCachedSnapshotConcurrent(t *testing.T) {
	d := dataset.Flows(dataset.FlowsConfig{N: 400, Seed: 21})
	hash := sampling.NewSeedHash(17)
	e, err := New(Config{Instances: d.R(), K: 10, Shards: 8, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < d.R(); i++ {
				for k := 0; k < d.N(); k++ {
					if wt := d.W[i][k]; wt > 0 {
						if err := e.Ingest(i, uint64(k), wt); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var last uint64
			maxStale := time.Duration(0)
			if g%2 == 1 {
				maxStale = time.Millisecond
			}
			for i := 0; i < 50; i++ {
				snap, v := cachedSnapshot(e, maxStale)
				if v < last {
					t.Errorf("version went backwards: %d after %d", v, last)
					return
				}
				last = v
				if len(snap.Keys) != len(snap.Sample.Outcomes) {
					t.Errorf("snapshot keys/outcomes mismatch: %d != %d", len(snap.Keys), len(snap.Sample.Outcomes))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	batch, err := dataset.SampleBottomK(d, 10, hash)
	if err != nil {
		t.Fatal(err)
	}
	final, v := cachedSnapshot(e, 0)
	if v != e.Version() {
		t.Fatalf("quiescent cached version %d != engine version %d", v, e.Version())
	}
	requireEqualSamples(t, final, batch)
}

// TestStatsConsistentCutUnderIngest asserts Stats is a true point-in-time
// cut while writers run: the invariants that tie its counters together
// can never be observed violated (run with -race in CI).
func TestStatsConsistentCutUnderIngest(t *testing.T) {
	e, err := New(Config{Instances: 2, K: 6, Shards: 8, Hash: sampling.NewSeedHash(5)})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := uint64(0); ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := e.Ingest(int(k%2), k*4+uint64(w), float64(k%97+1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var prev Stats
	for i := 0; i < 200; i++ {
		st := e.Stats()
		if st.Keys > st.ActiveEntries || st.ActiveEntries > st.Keys*st.Instances {
			t.Fatalf("inconsistent cut: keys=%d active=%d instances=%d", st.Keys, st.ActiveEntries, st.Instances)
		}
		if st.RetainedEntries > st.Instances*(st.K+1)*st.Shards {
			t.Fatalf("retained %d above sketch bound", st.RetainedEntries)
		}
		// Every writer key is distinct, so accepted ingests == keys and
		// a consistent cut must agree exactly; versions count the same
		// events, so they match too.
		if st.Ingests != uint64(st.Keys) {
			t.Fatalf("torn cut: ingests=%d keys=%d", st.Ingests, st.Keys)
		}
		if st.Version != st.Ingests {
			t.Fatalf("version %d != ingests %d", st.Version, st.Ingests)
		}
		if st.Keys < prev.Keys || st.Version < prev.Version {
			t.Fatalf("counts went backwards: %+v after %+v", st, prev)
		}
		prev = st
	}
	close(stop)
	wg.Wait()
}

// TestIngestBatchScratchReuse checks the two-pass bucketing survives pool
// reuse across differently-sized batches and concurrent callers.
func TestIngestBatchScratchReuse(t *testing.T) {
	d := dataset.Stable(dataset.StableConfig{N: 120, Churn: 0.3, Seed: 2})
	hash := sampling.NewSeedHash(8)
	e, err := New(Config{Instances: d.R(), K: 12, Shards: 8, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	var updates []Update
	for i := 0; i < d.R(); i++ {
		for k := 0; k < d.N(); k++ {
			if d.W[i][k] > 0 {
				updates = append(updates, Update{Instance: i, Key: uint64(k), Weight: d.W[i][k]})
			}
		}
	}
	// Concurrent variously-sized sub-batches (idempotent under max
	// semantics), then the whole batch again in one call.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lo := 0; lo < len(updates); lo += 7 + w {
				hi := min(lo+7+w, len(updates))
				if err := e.IngestBatch(updates[lo:hi]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := e.IngestBatch(updates); err != nil {
		t.Fatal(err)
	}
	batch, err := dataset.SampleBottomK(d, 12, hash)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualSamples(t, e.Snapshot(), batch)
}
