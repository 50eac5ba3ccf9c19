package engine

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
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

func fillRandom(t *testing.T, e *Engine, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	if err := e.IngestBatch(randomUpdates(rng, n, e.Config().Instances, 200)); err != nil {
		t.Fatal(err)
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

// TestBottomEntriesKeepsTies: the compact cut keeps every entry tied
// with the (k+1)-th rank, so a merge engine sees the same boundary.
func TestBottomEntriesKeepsTies(t *testing.T) {
	for _, tc := range []struct {
		ranks []float64
		n     int
		want  []uint64 // keys, ascending
	}{
		{[]float64{5, 1, 3, 3, 3, 2}, 3, []uint64{1, 2, 3, 4, 5}},
		{[]float64{5, 1, 3, 4, 6, 2}, 3, []uint64{1, 2, 5}},
		{[]float64{2, 2, 2}, 1, []uint64{0, 1, 2}},
		{[]float64{9, 8}, 3, []uint64{0, 1}},
	} {
		es := make([]bkEntry, len(tc.ranks))
		for i, r := range tc.ranks {
			es[i] = bkEntry{key: uint64(i), weight: 1, rank: r}
		}
		var got []uint64
		for _, en := range bottomEntries(es, tc.n) {
			got = append(got, en.Key)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ranks %v, n=%d: keys %v, want %v", tc.ranks, tc.n, got, tc.want)
		}
	}
}

// TestMergeStateRegistersEntryKeys: an entry whose key is absent from the
// state's Keys registers the key (and its instance bit) instead of being
// served at a neighbouring key's position.
func TestMergeStateRegistersEntryKeys(t *testing.T) {
	src, _ := New(testConfig(2))
	st := src.DumpState() // an empty engine's header and seed fingerprint
	st.Keys = []uint64{1, 2, 3, 8, 9}
	st.Masks = []uint64{1, 1, 1, 1, 1}
	st.Entries = [][]StateEntry{{{Key: 2, Weight: 3}, {Key: 7, Weight: 5}, {Key: 8, Weight: 1}}, nil, {{Key: 9, Weight: 2}}}

	e, _ := New(testConfig(2))
	if err := e.MergeState(st); err != nil {
		t.Fatal(err)
	}
	view := e.FreshView()
	if len(view.Exceptional) == 0 {
		t.Fatal("no exceptional outcomes")
	}
	for _, o := range view.Exceptional {
		if got := view.Keys[o.Pos]; got != o.Key {
			t.Fatalf("outcome for key %d served at position %d, which holds key %d", o.Key, o.Pos, got)
		}
	}
	// Five registered bits, plus key 7 in instance 0 and key 9 in instance 2.
	if s := e.Stats(); s.Keys != 6 || s.ActiveEntries != 7 {
		t.Fatalf("keys %d active %d, want 6 and 7", s.Keys, s.ActiveEntries)
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
	batch := []Update{
		{Instance: 1, Key: 1, Weight: 2},
		{Instance: 1, Key: 2, Weight: 0}, // filtered
		{Instance: 2, Key: 3, Weight: 4},
	}
	if e.shardOf(1) == e.shardOf(3) {
		t.Fatal("keys 1 and 3 share a shard; pick keys that span two")
	}
	if err := e.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	// One record per ingest call, however many shards the batch spans.
	if len(j.batches) != 2 || len(j.batches[1]) != 2 {
		t.Fatalf("journaled records %v, want the single update then one 2-update record for the two-shard batch", j.batches)
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
	e, _ := New(testConfig(4))
	boom := errors.New("disk full")
	e.SetJournal(&journalRecorder{fail: boom})

	if err := e.Ingest(0, 1, 1); !errors.Is(err, boom) || !errors.Is(err, ErrJournal) ||
		err.Error() != "engine: journal: disk full" {
		t.Fatalf("Ingest error %v, want the journal error wrapped and marked ErrJournal", err)
	}
	if err := e.IngestBatch([]Update{{Instance: 0, Key: 2, Weight: 1}}); !errors.Is(err, boom) || !errors.Is(err, ErrJournal) ||
		err.Error() != "engine: journal: disk full" {
		t.Fatalf("IngestBatch error %v, want the journal error wrapped and marked ErrJournal", err)
	}
	// A batch spanning several shards is all-or-nothing: the one record
	// failed, so no shard applies any of it.
	var spread []Update
	shards := map[int]bool{}
	for key := uint64(0); len(shards) < 3; key++ {
		spread = append(spread, Update{Instance: int(key % 2), Key: key, Weight: 1 + float64(key)})
		shards[e.shardOf(key)] = true
	}
	if err := e.IngestBatch(spread); !errors.Is(err, boom) || err.Error() != "engine: journal: disk full" {
		t.Fatalf("IngestBatch of a %d-shard batch: error %v, want the journal error", len(shards), err)
	}
	if err := e.IngestBatch([]Update{{Instance: 9, Key: 2, Weight: 1}}); err == nil || errors.Is(err, ErrJournal) {
		t.Fatalf("validation error %v must not be marked ErrJournal", err)
	}
	if st := e.Stats(); st.Keys != 0 || st.Ingests != 0 || st.Version != 0 {
		t.Fatalf("journal-rejected updates left state behind: %+v", st)
	}
}

func TestSortRegistryMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := make([]uint64, 257)
	for j := range random {
		random[j] = rng.Uint64()
	}
	topByte, lowByte := make([]uint64, 200), make([]uint64, 200)
	for j, v := range rng.Perm(200) {
		topByte[j] = uint64(v)<<56 | 0x00123456789abcde
		lowByte[j] = 0xfedcba9876543200 | uint64(v)
	}
	for _, keys := range [][]uint64{random, nil, {42}, topByte, random[:3], lowByte} {
		in := slices.Clone(keys)
		out := make([]uint64, len(keys))
		perm := sortRegistry(in, out)
		want := slices.Clone(keys)
		slices.Sort(want)
		if !slices.Equal(out, want) {
			t.Fatalf("%d keys: radix order differs from a comparison sort", len(keys))
		}
		for to, from := range perm {
			if keys[from] != out[to] {
				t.Fatalf("%d keys: perm[%d] = %d names key %d, out holds %d", len(keys), to, from, keys[from], out[to])
			}
		}
	}
}

// The cut's masks follow their keys through the registry sort, also when
// a key's mask spans several words.
func TestDumpStateMasksFollowKeys(t *testing.T) {
	const r = 70
	e, err := New(Config{Instances: r, K: 4, Shards: 4, Hash: sampling.NewSeedHash(3)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	want := map[uint64][]uint64{}
	for _, u := range randomUpdates(rng, 3000, r, 400) {
		u.Key = u.Key<<40 | u.Key // differing bytes at both ends of the key
		if err := e.Ingest(u.Instance, u.Key, u.Weight); err != nil {
			t.Fatal(err)
		}
		if want[u.Key] == nil {
			want[u.Key] = make([]uint64, 2)
		}
		want[u.Key][u.Instance/64] |= 1 << (u.Instance % 64)
	}
	st := e.DumpState()
	if len(st.Keys) != len(want) || !slices.IsSorted(st.Keys) {
		t.Fatalf("cut holds %d keys (sorted %v), want %d ascending", len(st.Keys), slices.IsSorted(st.Keys), len(want))
	}
	for j, key := range st.Keys {
		if got := st.Masks[2*j : 2*j+2]; !slices.Equal(got, want[key]) {
			t.Fatalf("key %#x: mask %x, want %x", key, got, want[key])
		}
	}
}

// applyStateReference is applyState as a per-key / per-entry walk: every
// key, then every entry of instance 0, 1, …, each under its own shard
// lock acquisition and mutation-counter bump. applyState buckets the same
// walk by shard; TestApplyStateMatchesPerItemWalk holds the two equal.
func applyStateReference(e *Engine, st *State, countMuts bool) {
	mw := maskWordsFor(st.Instances)
	for j, key := range st.Keys {
		sh := e.shards[e.shardOf(key)]
		sh.mu.Lock()
		slot := sh.slot(key)
		muts := uint64(0)
		for w := 0; w < mw; w++ {
			muts += uint64(sh.activate(slot, w, st.Masks[j*mw+w]))
		}
		if countMuts {
			sh.muts.Add(muts)
		}
		sh.mu.Unlock()
	}
	for i, ents := range st.Entries {
		word, bit := i/64, uint64(1)<<(i%64)
		for _, en := range ents {
			sh := e.shards[e.shardOf(en.Key)]
			sh.mu.Lock()
			slot := sh.slot(en.Key)
			muts := uint64(sh.activate(slot, word, bit))
			rank := sampling.Rank(sampling.RankPriority, e.cfg.Hash.U(en.Key), en.Weight)
			if sh.heaps[i].update(slot, en.Key, en.Weight, rank) {
				muts++
			}
			if countMuts {
				sh.muts.Add(muts)
			}
			sh.mu.Unlock()
		}
	}
}

// TestApplyStateMatchesPerItemWalk: RestoreState and MergeState leave the
// engine exactly as the per-item walk does — the same cut, the same
// per-shard mutation counters and key counts, and inside every shard the
// same registry slot order, masks and heap layout.
func TestApplyStateMatchesPerItemWalk(t *testing.T) {
	filled := func(cfg Config, seed int64, n, keyspace int) *Engine {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		if err := e.IngestBatch(randomUpdates(rng, n, cfg.Instances, keyspace)); err != nil {
			t.Fatal(err)
		}
		return e
	}
	wide := Config{Instances: 70, K: 6, Shards: 5, Hash: sampling.NewSeedHash(7)}
	// crafted holds every retained entry of each instance, not only the
	// bottom-(k+1), plus duplicates and keys absent from its registry: the
	// per-shard heaps evict, update in place and register entry keys.
	crafted := func() *State {
		src := filled(testConfig(4), 5, 3000, 500)
		st := src.DumpState()
		st.Keys, st.Masks = st.Keys[:len(st.Keys)/3], st.Masks[:len(st.Keys)/3*maskWordsFor(st.Instances)]
		rng := rand.New(rand.NewSource(6))
		for i := range st.Entries {
			st.Entries[i] = st.Entries[i][:0]
			for n := 0; n < 400; n++ {
				st.Entries[i] = append(st.Entries[i], StateEntry{Key: uint64(rng.Intn(700)), Weight: 0.01 + rng.Float64()*10})
			}
		}
		return st
	}
	cases := []struct {
		name   string
		target func() *Engine // the engine the state lands in (twice)
		st     func() *State
		merge  bool
	}{
		{"restore", func() *Engine { e, _ := New(testConfig(7)); return e },
			func() *State { return filled(testConfig(4), 1, 4000, 900).DumpState() }, false},
		{"merge into non-empty", func() *Engine { return filled(testConfig(7), 2, 2500, 900) },
			func() *State { return filled(testConfig(3), 3, 4000, 900).DumpState() }, true},
		{"entries outside Keys", func() *Engine { return filled(testConfig(7), 4, 800, 900) }, crafted, true},
		{"restore r=70", func() *Engine { e, _ := New(wide); return e },
			func() *State { return filled(wide, 8, 6000, 400).DumpState() }, false},
		{"merge r=70", func() *Engine { return filled(wide, 9, 3000, 400) },
			func() *State { return filled(wide, 10, 6000, 400).DumpState() }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.st()
			got, want := tc.target(), tc.target()
			if tc.merge {
				if err := got.MergeState(st); err != nil {
					t.Fatal(err)
				}
				applyStateReference(want, st, true)
				want.ingests.Add(st.Ingests)
			} else {
				if err := got.RestoreState(st); err != nil {
					t.Fatal(err)
				}
				applyStateReference(want, st, false)
				want.ingests.Store(st.Ingests)
				want.shards[0].muts.Store(st.Version)
			}
			if !reflect.DeepEqual(got.DumpState(), want.DumpState()) {
				t.Fatal("DumpState differs from the per-item walk's")
			}
			if g, w := got.Stats().PerShard, want.Stats().PerShard; !reflect.DeepEqual(g, w) {
				t.Fatalf("PerShard %+v, per-item walk %+v", g, w)
			}
			for s := range got.shards {
				g, w := got.shards[s], want.shards[s]
				// Equal records (keys, masks and heap positions) in equal
				// slot order; the index layout depends on each shard's
				// seed, so each engine's index must resolve every key to
				// that slot.
				if !slices.Equal(g.reg, w.reg) || g.activeEntries != w.activeEntries {
					t.Fatalf("shard %d registry differs from the per-item walk's", s)
				}
				for slot := range g.len() {
					key := g.key(slot)
					if gs, ws := g.slot(key), w.slot(key); gs != uint32(slot) || ws != uint32(slot) {
						t.Fatalf("shard %d key %#x resolves to slot %d and %d, want %d", s, key, gs, ws, slot)
					}
				}
				for i := range g.heaps {
					gh, wh := &g.heaps[i], &w.heaps[i]
					if !slices.Equal(gh.es, wh.es) || !slices.Equal(gh.slots, wh.slots) {
						t.Fatalf("shard %d instance %d heap differs from the per-item walk's", s, i)
					}
				}
			}
		})
	}
}
