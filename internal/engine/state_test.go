package engine

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sampling"
)

func testConfig(shards int) Config {
	return Config{Instances: 3, K: 8, Shards: shards, Hash: sampling.NewSeedHash(7)}
}

func randomUpdates(rng *rand.Rand, n, instances, keyspace int) []Update {
	ups := make([]Update, n)
	for i := range ups {
		ups[i] = Update{
			Instance: rng.Intn(instances),
			Key:      uint64(rng.Intn(keyspace)),
			Weight:   rng.Float64() * 10,
		}
	}
	return ups
}

func fillRandom(t *testing.T, e *Engine, seed int64, n int) []Update {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ups := randomUpdates(rng, n, e.Config().Instances, 200)
	if err := e.IngestBatch(ups); err != nil {
		t.Fatal(err)
	}
	return ups
}

func TestDumpRestoreRoundTrip(t *testing.T) {
	src, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, src, 1, 5000)
	st := src.DumpState()

	dst, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.Snapshot(), src.Snapshot()) {
		t.Fatal("restored snapshot differs from source")
	}
	// A re-dump must be byte-equal in every field: same sorted keys and
	// masks, same retained entries, preserved counters — the property the
	// /v1/export comparison across a clean restart rests on.
	if !reflect.DeepEqual(dst.DumpState(), st) {
		t.Fatal("re-dumped state differs from the original dump")
	}
	ss, ds := src.Stats(), dst.Stats()
	if ds.Ingests != ss.Ingests || ds.Version != ss.Version {
		t.Fatalf("counters not preserved: src ingests=%d version=%d, dst ingests=%d version=%d",
			ss.Ingests, ss.Version, ds.Ingests, ds.Version)
	}
	if ds.Keys != ss.Keys || ds.ActiveEntries != ss.ActiveEntries || ds.RetainedEntries != ss.RetainedEntries {
		t.Fatalf("contents not preserved: src %+v dst %+v", ss, ds)
	}
}

func TestRestoreAcrossShardCounts(t *testing.T) {
	src, err := New(testConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, src, 2, 5000)
	st := src.DumpState()

	dst, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	// Snapshot semantics survive re-sharding: the global bottom-(k+1) per
	// instance is retained in every layout.
	if !reflect.DeepEqual(dst.Snapshot(), src.Snapshot()) {
		t.Fatal("snapshot differs after restore into a different shard count")
	}
}

func TestRestoreRequiresEmptyAndCompatible(t *testing.T) {
	src, _ := New(testConfig(2))
	fillRandom(t, src, 3, 100)
	st := src.DumpState()

	dirty, _ := New(testConfig(2))
	fillRandom(t, dirty, 4, 10)
	if err := dirty.RestoreState(st); err == nil {
		t.Error("restore into a non-empty engine must fail")
	}

	wrongK, _ := New(Config{Instances: 3, K: 9, Shards: 2, Hash: sampling.NewSeedHash(7)})
	if err := wrongK.RestoreState(st); err == nil {
		t.Error("restore with mismatched k must fail")
	}
	wrongInst, _ := New(Config{Instances: 2, K: 8, Shards: 2, Hash: sampling.NewSeedHash(7)})
	if err := wrongInst.RestoreState(st); err == nil {
		t.Error("restore with mismatched instances must fail")
	}
	wrongSalt, _ := New(Config{Instances: 3, K: 8, Shards: 2, Hash: sampling.NewSeedHash(8)})
	if err := wrongSalt.RestoreState(st); err == nil {
		t.Error("restore with a different salt must fail (seed fingerprint)")
	}
}

func TestMergeStateMatchesUnionStream(t *testing.T) {
	a, _ := New(testConfig(4))
	b, _ := New(testConfig(8))
	upsA := fillRandom(t, a, 5, 3000)
	upsB := fillRandom(t, b, 6, 3000)

	union, _ := New(testConfig(4))
	if err := union.IngestBatch(upsA); err != nil {
		t.Fatal(err)
	}
	if err := union.IngestBatch(upsB); err != nil {
		t.Fatal(err)
	}

	if err := a.MergeState(b.DumpState()); err != nil {
		t.Fatal(err)
	}
	// Lossless mergeability: merging b's sketch into a is bit-identical
	// to one engine having ingested both streams.
	if !reflect.DeepEqual(a.Snapshot(), union.Snapshot()) {
		t.Fatal("merged snapshot differs from the union-stream snapshot")
	}
	if got, want := a.Stats().Ingests, union.Stats().Ingests; got != want {
		t.Fatalf("merged ingest counter %d, union stream %d", got, want)
	}
}

func TestMergeStateBumpsVersion(t *testing.T) {
	a, _ := New(testConfig(2))
	b, _ := New(testConfig(2))
	fillRandom(t, b, 7, 500)
	v0 := a.Version()
	if err := a.MergeState(b.DumpState()); err != nil {
		t.Fatal(err)
	}
	if a.Version() == v0 {
		t.Fatal("merge that changed state did not bump the version")
	}
	// Re-merging the same state is a pure no-op: every mask bit and entry
	// is dominated, so cached snapshots stay valid.
	snap, v1 := cachedSnapshot(a, 0)
	if err := a.MergeState(b.DumpState()); err != nil {
		t.Fatal(err)
	}
	snap2, v2 := cachedSnapshot(a, 0)
	if v2 != v1 {
		t.Fatalf("idempotent re-merge moved the version %d -> %d", v1, v2)
	}
	if !reflect.DeepEqual(snap, snap2) {
		t.Fatal("idempotent re-merge changed the snapshot")
	}
}

// journalRecorder captures journaled batches and can inject failures.
type journalRecorder struct {
	batches [][]Update
	fail    error
}

func (j *journalRecorder) Append(batch []Update) error {
	if j.fail != nil {
		return j.fail
	}
	cp := make([]Update, len(batch))
	copy(cp, batch)
	j.batches = append(j.batches, cp)
	return nil
}

func TestJournalReceivesAcceptedUpdates(t *testing.T) {
	e, _ := New(testConfig(4))
	j := &journalRecorder{}
	e.SetJournal(j)

	if err := e.Ingest(0, 42, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(0, 43, 0); err != nil { // zero-weight no-op: not journaled
		t.Fatal(err)
	}
	if err := e.IngestBatch([]Update{
		{Instance: 1, Key: 1, Weight: 2},
		{Instance: 1, Key: 2, Weight: 0}, // filtered
		{Instance: 2, Key: 3, Weight: 4},
	}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range j.batches {
		total += len(b)
	}
	if total != 3 {
		t.Fatalf("journaled %d updates, want 3 (zero weights excluded)", total)
	}
	// Replaying the journal into a fresh engine reproduces the state —
	// the property WAL recovery is built on.
	r, _ := New(testConfig(4))
	for _, b := range j.batches {
		if err := r.IngestBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(r.Snapshot(), e.Snapshot()) {
		t.Fatal("journal replay does not reproduce the engine state")
	}
}

func TestJournalErrorRejectsUpdate(t *testing.T) {
	e, _ := New(testConfig(2))
	boom := errors.New("disk full")
	e.SetJournal(&journalRecorder{fail: boom})

	if err := e.Ingest(0, 1, 1); !errors.Is(err, boom) || !errors.Is(err, ErrJournal) ||
		err.Error() != "engine: journal: disk full" {
		t.Fatalf("Ingest error %v, want the journal error wrapped and marked ErrJournal", err)
	}
	if err := e.IngestBatch([]Update{{Instance: 0, Key: 2, Weight: 1}}); !errors.Is(err, boom) || !errors.Is(err, ErrJournal) ||
		err.Error() != "engine: journal (batch partially applied): disk full" {
		t.Fatalf("IngestBatch error %v, want the journal error wrapped and marked ErrJournal", err)
	}
	if err := e.IngestBatch([]Update{{Instance: 9, Key: 2, Weight: 1}}); err == nil || errors.Is(err, ErrJournal) {
		t.Fatalf("validation error %v must not be marked ErrJournal", err)
	}
	if st := e.Stats(); st.Keys != 0 || st.Ingests != 0 || st.Version != 0 {
		t.Fatalf("journal-rejected updates left state behind: %+v", st)
	}
}
