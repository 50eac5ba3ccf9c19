package engine_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/internal/store"
)

// This file is the engine's model-based equivalence harness. Coordinated
// samples are a pure function of each key's weights and its shared seed,
// so whatever path delivered them — single and batched ingest, a WAL
// replay, a merge of another engine's cut, a restore into another shard
// layout — an engine's state must be dataset.SampleBottomK of the max
// weight it was given per (instance, key). The harness runs one to three
// engines, each beside such a table, through a random op stream, and at
// every view holds the engine to the table twice: the view's snapshot
// against SampleBottomK, and the encoded DumpState against that of a
// fresh engine fed the table once.
//
// Weights are continuous draws, so exact rank ties and near-overflow
// weights do not occur here: heap admission is lossy there, and
// FuzzRebuildMatchesBatch skips those inputs (DESIGN §6.2).

// The ops a stream byte selects (its low bits, mod numOps); the higher
// bits pick the engine it acts on and, for merges, the engine it reads.
const (
	opBatch   = iota // IngestBatch, with dominated duplicates
	opIngest         // single Ingest calls
	opReplay         // a Replay of a generated tail
	opMerge          // MergeState(SketchState(0)) of an engine
	opResync         // a coordinator's re-sync: SketchState(last reg)
	opRestore        // RestoreState(DumpState()) into a fresh engine
	opCached         // check CachedView(0)
	opFresh          // check FreshView
	numOps
)

// model is the harness state: the engines with their tables, and what
// the stream has exercised so far.
type model struct {
	t     testing.TB
	seed  int64
	rng   *rand.Rand
	cfg   engine.Config
	keys  int // keys are 0..keys-1, SampleBottomK's item indices
	nodes []*node
	ran   [numOps]int
	blind int // re-syncs that merged a cut without its registry
}

// node is one engine under test. w[i][key] is the max weight it was given
// per (instance, key); synced[j] is the registry size of the last cut of
// node j it merged by re-sync (SketchState's reg).
type node struct {
	e      *engine.Engine
	w      [][]float64
	synced []uint64
}

// runModel draws the configuration and every key and weight from seed and
// applies ops, checking every view and, at the end, every engine.
func runModel(t testing.TB, seed int64, ops []byte) *model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := &model{t: t, seed: seed, rng: rng, keys: 8 + rng.Intn(250)}
	m.cfg = engine.Config{Instances: 1 + rng.Intn(3), K: 1 + rng.Intn(12), Hash: sampling.NewSeedHash(uint64(seed))}
	n := 1 + rng.Intn(3)
	for range n {
		nd := &node{e: m.engine(1 + rng.Intn(16)), w: make([][]float64, m.cfg.Instances), synced: make([]uint64, n)}
		for i := range nd.w {
			nd.w[i] = make([]float64, m.keys)
		}
		m.nodes = append(m.nodes, nd)
	}
	for j, b := range ops {
		m.step(j, b)
	}
	for _, nd := range m.nodes {
		m.check(len(ops), nd, nd.e.CachedView(0))
	}
	return m
}

// fail stops the run, naming the seed and the op index j.
func (m *model) fail(j int, format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("seed %d, op %d: "+format, append([]any{m.seed, j}, args...)...)
}

func (m *model) engine(shards int) *engine.Engine {
	cfg := m.cfg
	cfg.Shards = shards
	e, err := engine.New(cfg)
	if err != nil {
		m.t.Fatal(err)
	}
	return e
}

// updates draws n updates for nd. About a quarter are dominated: by nd's
// table or by the update just before them. One in twelve is tiny, so it
// registers its key without reaching a retained rank, and one in twelve
// is a zero weight, an accepted no-op.
func (m *model) updates(nd *node, n int) []engine.Update {
	ups := make([]engine.Update, 0, n+n/4)
	for len(ups) < n {
		u := engine.Update{Instance: m.rng.Intn(m.cfg.Instances), Key: uint64(m.rng.Intn(m.keys)), Weight: 10 * m.rng.Float64()}
		switch m.rng.Intn(12) {
		case 0:
			u.Weight *= 1e-9
		case 1:
			u.Weight = 0
		case 2, 3:
			if w := nd.w[u.Instance][u.Key]; w > 0 {
				u.Weight = w * m.rng.Float64()
			}
		case 4:
			ups = append(ups, u)
			u.Weight *= m.rng.Float64()
		}
		ups = append(ups, u)
	}
	return ups
}

// fold takes ups into nd's table.
func (nd *node) fold(ups []engine.Update) {
	for _, u := range ups {
		nd.w[u.Instance][u.Key] = max(nd.w[u.Instance][u.Key], u.Weight)
	}
}

// table lists nd's table as one update per positive (instance, key).
func (nd *node) table() []engine.Update {
	var ups []engine.Update
	for i, ws := range nd.w {
		for key, w := range ws {
			if w > 0 {
				ups = append(ups, engine.Update{Instance: i, Key: uint64(key), Weight: w})
			}
		}
	}
	return ups
}

func (m *model) step(j int, b byte) {
	m.t.Helper()
	op := int(b) % numOps
	xi, yi := int(b>>3)%len(m.nodes), int(b>>5)%len(m.nodes)
	x, y := m.nodes[xi], m.nodes[yi]
	switch op {
	case opBatch:
		ups := m.updates(x, 1+m.rng.Intn(64))
		if err := x.e.IngestBatch(ups); err != nil {
			m.fail(j, "IngestBatch: %v", err)
		}
		x.fold(ups)
	case opIngest:
		for _, u := range m.updates(x, 1+m.rng.Intn(8)) {
			if err := x.e.Ingest(u.Instance, u.Key, u.Weight); err != nil {
				m.fail(j, "Ingest: %v", err)
			}
			x.fold([]engine.Update{u})
		}
	case opReplay:
		rp := x.e.Replay()
		for range 1 + m.rng.Intn(4) {
			ups := m.updates(x, 1+m.rng.Intn(64))
			if err := rp.Add(ups); err != nil {
				rp.Wait()
				m.fail(j, "Replay.Add: %v", err)
			}
			x.fold(ups)
		}
		rp.Wait()
	case opMerge:
		st, _ := y.e.SketchState(0)
		m.merge(j, x, y, st)
	case opResync:
		st, reg := y.e.SketchState(x.synced[yi])
		s := y.e.Stats()
		if reg != uint64(s.Keys+s.ActiveEntries) {
			m.fail(j, "cut reg %d, want keys+active %d", reg, s.Keys+s.ActiveEntries)
		}
		if shipped := len(st.Keys) > 0; shipped != (reg != x.synced[yi]) {
			m.fail(j, "registry shipped=%v with reg %d, last synced %d", shipped, reg, x.synced[yi])
		}
		if reg > 0 && len(st.Keys) == 0 {
			m.blind++
		}
		for i, ents := range st.Entries {
			positive := 0
			for _, w := range y.w[i] {
				if w > 0 {
					positive++
				}
			}
			if want := min(m.cfg.K+1, positive); len(ents) != want {
				m.fail(j, "instance %d cut %d entries, want the bottom-(k+1) %d", i, len(ents), want)
			}
		}
		m.merge(j, x, y, st)
		x.synced[yi] = reg
	case opRestore:
		st := x.e.DumpState()
		shards := 1 + m.rng.Intn(16)
		if shards == st.Shards {
			shards = shards%16 + 1
		}
		e := m.engine(shards)
		e.FreshView() // a view cut before the restore must not outlive it
		if err := e.RestoreState(st); err != nil {
			m.fail(j, "RestoreState: %v", err)
		}
		re := e.DumpState()
		re.Shards = st.Shards
		if !bytes.Equal(store.EncodeState(re), store.EncodeState(st)) {
			m.fail(j, "a restored engine's dump differs from the dump it restored")
		}
		retained := 0
		for _, ents := range st.Entries {
			retained += len(ents)
		}
		if got, want := e.Stats(), x.e.Stats(); got.Keys != want.Keys || got.ActiveEntries != want.ActiveEntries || got.RetainedEntries != retained {
			m.fail(j, "restored stats %+v, source %+v, want %d retained", got, want, retained)
		}
		x.e = e
	case opCached:
		m.check(j, x, x.e.CachedView(0))
	case opFresh:
		m.check(j, x, x.e.FreshView())
	}
	m.ran[op]++
}

// merge folds st, a cut of y, into x and y's table into x's. The cut's
// Ingests add to x's.
func (m *model) merge(j int, x, y *node, st *engine.State) {
	before := x.e.Stats().Ingests
	if err := x.e.MergeState(st); err != nil {
		m.fail(j, "MergeState: %v", err)
	}
	if got := x.e.Stats().Ingests; got != before+st.Ingests {
		m.fail(j, "merge moved Ingests %d → %d, want +%d", before, got, st.Ingests)
	}
	x.fold(y.table())
}

// check holds the view v of nd's engine to nd's table: its snapshot to
// SampleBottomK (Same compares τ too), and the engine's encoded dump to a
// fresh engine's fed the table once. The counters and the shard layout
// record how the state was reached, not the state, so they are copied
// over before the byte comparison.
func (m *model) check(j int, nd *node, v engine.SnapshotView) {
	t := m.t
	t.Helper()
	if v.Version != nd.e.Version() {
		m.fail(j, "view at version %d, engine at %d", v.Version, nd.e.Version())
	}
	d, err := dataset.New(nil, nd.w)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := dataset.SampleBottomK(d, m.cfg.K, m.cfg.Hash)
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	for key := range m.keys {
		for i := range nd.w {
			if nd.w[i][key] > 0 {
				keys = append(keys, uint64(key))
				break
			}
		}
	}
	snap := v.Snapshot()
	if !slices.Equal(snap.Keys, keys) {
		m.fail(j, "snapshot holds %d keys, the table %d", len(snap.Keys), len(keys))
	}
	for p, o := range snap.Sample.Outcomes {
		if b := batch.Outcomes[snap.Keys[p]]; !o.Same(b) {
			m.fail(j, "key %d: outcome %+v, SampleBottomK %+v", snap.Keys[p], o, b)
		}
	}
	if s := snap.Sample; s.SampledEntries != batch.SampledEntries || s.TotalEntries != batch.TotalEntries {
		m.fail(j, "sampled/total %d/%d, SampleBottomK %d/%d", s.SampledEntries, s.TotalEntries, batch.SampledEntries, batch.TotalEntries)
	}
	fresh := m.engine(3)
	if err := fresh.IngestBatch(nd.table()); err != nil {
		t.Fatal(err)
	}
	got, want := nd.e.DumpState(), fresh.DumpState()
	got.Version, got.Ingests, got.Shards = want.Version, want.Ingests, want.Shards
	if !bytes.Equal(store.EncodeState(got), store.EncodeState(want)) {
		m.fail(j, "dump differs from a fresh engine fed the table once")
	}
}

// TestEngineMatchesModel runs the harness on fixed seeds and requires the
// streams to have exercised every op and a registry-less re-sync.
func TestEngineMatchesModel(t *testing.T) {
	var ran [numOps]int
	blind := 0
	for seed := int64(1); seed <= 24; seed++ {
		ops := make([]byte, 120)
		rand.New(rand.NewSource(-seed)).Read(ops)
		m := runModel(t, seed, ops)
		for op, n := range m.ran {
			ran[op] += n
		}
		blind += m.blind
	}
	for op, n := range ran {
		if n == 0 {
			t.Errorf("op %d never ran", op)
		}
	}
	if blind == 0 {
		t.Error("no re-sync merged a cut without its registry")
	}
}

// FuzzEngineMatchesModel runs the harness over fuzzed op streams (at most
// 256 ops); seed fixes the configuration, keys and weights.
func FuzzEngineMatchesModel(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(2), []byte{0, 8, 16, 6, 35, 44, 12, 61, 14, 2, 71, 7, 100, 13, 4, 68, 6})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		runModel(t, seed, ops[:min(len(ops), 256)])
	})
}
