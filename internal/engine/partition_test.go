package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/sampling"
)

// rebuildEngine builds an engine over the dense weight matrix w (keys are
// column indices) and returns it.
func rebuildEngine(t *testing.T, w [][]float64, k, shards int, hash sampling.SeedHash) *Engine {
	t.Helper()
	e, err := New(Config{Instances: len(w), K: k, Shards: shards, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	ingestMatrix(t, e, w)
	return e
}

// requireMatchesMatrix asserts the engine's snapshot is bit-identical to
// the batch reduction of the dense weight matrix w.
func requireMatchesMatrix(t *testing.T, e *Engine, w [][]float64, k int, hash sampling.SeedHash) {
	t.Helper()
	d, err := dataset.New(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := dataset.SampleBottomK(d, k, hash)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualSamples(t, e.Snapshot(), batch)
}

// requireBatchThresholds asserts that the thresholds the engine's last
// rebuild selected equal the batch derivation: newInstThresholds over
// KSmallest of every retained rank, per instance.
func requireBatchThresholds(t *testing.T, e *Engine) {
	t.Helper()
	e.rebuildMu.Lock()
	defer e.rebuildMu.Unlock()
	for i := 0; i < e.cfg.Instances; i++ {
		var ranks []float64
		for _, sh := range e.shards {
			for _, en := range sh.heaps[i].es {
				ranks = append(ranks, en.rank)
			}
		}
		want := newInstThresholds(sampling.KSmallest(ranks, e.cfg.K+1), e.cfg.K)
		if got := e.thresh.insts[i]; got != want {
			t.Errorf("instance %d: selected thresholds %+v, KSmallest gives %+v", i, got, want)
		}
	}
}

// TestSelectedThresholdsMatchKSmallest pins the rebuild's selection of the
// k-th and (k+1)-th smallest rank against a full sort. Weight u·2^x (u the
// key's seed) gives rank exactly 2^-x, so equal ranks can straddle the
// boundary across shards.
func TestSelectedThresholdsMatchKSmallest(t *testing.T) {
	const (
		k      = 4
		shards = 4
	)
	hash := sampling.NewSeedHash(17)
	for _, tc := range []struct {
		name string
		exps [2][]int // per instance, key j's rank is 2^-exps[i][j]
	}{
		{"fewer than k", [2][]int{{1, 2, 3}, {3, 2, 1}}},
		{"exactly k", [2][]int{{1, 2, 3, 4}, {4, 1, 3, 2}}},
		{"exactly k+1", [2][]int{{5, 1, 4, 2, 3}, {2, 3, 1, 5, 4}}},
		{"ties straddle the boundary", [2][]int{{6, 5, 3, 3, 3, 3, 3, 1, 1}, {3, 3, 6, 3, 5, 1, 3, 3, 2}}},
		{"tie ends at the k-th", [2][]int{{6, 5, 4, 4, 2, 1, 1, 1, 1}, {1, 4, 4, 5, 6, 1, 2, 1, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := make([][]float64, 2)
			for i, exps := range tc.exps {
				w[i] = make([]float64, len(exps))
				for j, x := range exps {
					w[i][j] = hash.U(uint64(j)) * math.Ldexp(1, x)
				}
			}
			e := rebuildEngine(t, w, k, shards, hash)
			requireMatchesMatrix(t, e, w, k, hash)
			requireBatchThresholds(t, e)
		})
	}
	// The tied keys must span shards for the straddle case to mean it.
	tied := map[int]bool{}
	e, err := New(Config{Instances: 2, K: k, Shards: shards, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	for j := 2; j <= 6; j++ {
		tied[e.shardOf(uint64(j))] = true
	}
	if len(tied) < 2 {
		t.Fatalf("keys 2..6 all route to one shard; pick other keys for the tie")
	}
}

// requireKnownOrInBranch asserts that every entry the last rebuild left
// in the engine's retained lists takes its instance's τ-in branch or is
// known at the τ-out branch: the rebuild drops exactly the unknown τ-out
// entries, which are indistinguishable from absent ones.
func requireKnownOrInBranch(t *testing.T, e *Engine) {
	t.Helper()
	e.rebuildMu.Lock()
	defer e.rebuildMu.Unlock()
	for i, es := range e.retained {
		th := e.thresh.insts[i]
		for _, en := range es {
			known := en.weight >= e.cfg.Hash.U(en.key)*th.tauOut && en.weight > 0
			if th.branch(en.rank) != 0 && !known {
				t.Errorf("instance %d: key %d (rank %g > boundary %g) is unknown but still retained", i, en.key, en.rank, th.boundary)
			}
		}
	}
}

// heapEntries counts the entries every shard's instance-i heap retains.
func heapEntries(e *Engine, i int) int {
	n := 0
	for _, sh := range e.shards {
		n += len(sh.heaps[i].es)
	}
	return n
}

// TestRebuildDropsOnlyUnknownOutBranch pins the rebuild's drop of unknown
// τ-out entries at exact rank ties: weight u·2^x (u the key's seed) gives
// rank exactly 2^-x, so whole groups of keys tie at the k-th rank. The
// snapshot must stay bit-identical to the batch reduction, the thresholds
// must equal KSmallest's, what survives must be in-branch or known, and an
// instance with fewer than k finite ranks must keep every entry.
func TestRebuildDropsOnlyUnknownOutBranch(t *testing.T) {
	const (
		k      = 4
		shards = 4
		sub    = 0 // exps marker: a subnormal weight, whose rank is +Inf
	)
	hash := sampling.NewSeedHash(17)
	for _, tc := range []struct {
		name string
		exps [2][]int // per instance, key j's rank is 2^-exps[i][j]
		drop [2]bool  // whether the rebuild must drop entries of instance i
	}{
		{
			"more than k+1 tied at the k-th",
			[2][]int{
				{12, 10, 10, 10, 12, 10, 10, 10, 10, 10, 8, 7, 8, 6, 7, 8, 6, 7},
				{10, 10, 9, 10, 10, 10, 7, 10, 6, 10, 10, 8, 7, 6, 8, 7, 6, 8},
			},
			[2]bool{true, true},
		},
		{
			"tie straddles the k-th and (k+1)-th",
			[2][]int{
				{12, 12, 12, 10, 10, 10, 10, 8, 7, 7, 6, 8, 7, 6, 8, 7, 6, 8},
				{9, 8, 11, 10, 10, 10, 8, 7, 6, 8, 7, 6, 8, 7, 12, 11, 6, 8},
			},
			[2]bool{true, true},
		},
		{
			"fewer than k finite ranks",
			[2][]int{
				{10, 10, 10, 12, 10, 8, 7, 6, 8, 7, 6, 8, 7, 6},
				{10, -4, sub, 3, sub},
			},
			[2]bool{true, false},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.exps[0])
			w := [][]float64{make([]float64, n), make([]float64, n)}
			for i, exps := range tc.exps {
				for j, x := range exps {
					w[i][j] = hash.U(uint64(j)) * math.Ldexp(1, x)
					if x == sub {
						w[i][j] = 5e-324
					}
				}
			}
			e := rebuildEngine(t, w, k, shards, hash)
			requireMatchesMatrix(t, e, w, k, hash)
			requireBatchThresholds(t, e)
			requireKnownOrInBranch(t, e)
			for i := range w {
				e.rebuildMu.Lock()
				kept := len(e.retained[i])
				e.rebuildMu.Unlock()
				if held := heapEntries(e, i); (kept < held) != tc.drop[i] {
					t.Errorf("instance %d: rebuild kept %d of %d retained entries, want a drop: %v", i, kept, held, tc.drop[i])
				}
			}
			// The tie must cover the k-th and (k+1)-th ranks (so both τ*
			// branches coincide) and span shards for the case to mean it.
			for i, exps := range tc.exps {
				th := e.thresh.insts[i]
				if th.hasK && th.tauIn != th.tauOut {
					t.Errorf("instance %d: the k-th and (k+1)-th ranks differ (τ-in %g, τ-out %g)", i, th.tauIn, th.tauOut)
				}
				tied := map[int]bool{}
				for j, x := range exps {
					if x != sub && math.Ldexp(1, -x) == th.boundary {
						tied[e.shardOf(uint64(j))] = true
					}
				}
				if th.hasK && len(tied) < 3 {
					t.Errorf("instance %d: keys tied at the k-th rank span %d shards, want ≥ 3", i, len(tied))
				}
			}
		})
	}
}

// TestSortByKeyMatchesSort holds the rebuild's key radix to a comparison
// sort, with one scratch buffer reused across lists of different lengths
// and key shapes (a single varying byte leaves the result in scratch).
func TestSortByKeyMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	random := make([]uint64, 257)
	for j := range random {
		random[j] = rng.Uint64()
	}
	topByte, lowByte := make([]uint64, 200), make([]uint64, 200)
	for j, v := range rng.Perm(200) {
		topByte[j] = uint64(v)<<56 | 0x00123456789abcde
		lowByte[j] = 0xfedcba9876543200 | uint64(v)
	}
	var scratch []bkEntry
	for _, keys := range [][]uint64{random, nil, {42}, topByte, random[:3], lowByte, random} {
		es := make([]bkEntry, len(keys))
		for j, key := range keys {
			es[j] = bkEntry{key: key, weight: float64(j), rank: float64(-j)}
		}
		want := slices.Clone(es)
		slices.SortFunc(want, func(a, b bkEntry) int { return cmp.Compare(a.key, b.key) })
		scratch = sortByKey(es, scratch)
		if !slices.Equal(es, want) {
			t.Fatalf("%d keys: radix order differs from a comparison sort", len(keys))
		}
	}
}

// TestRebuildCarriesOnlyKeys pins the one piece of state a rebuild hands
// the next, the merged key slice: a weight-only write keeps it (same
// backing array); a new key is merged into a fresh slice while the
// previous view's slice stays byte-identical; and a restore into an engine
// that was already read drops it, so the next view equals the source's.
func TestRebuildCarriesOnlyKeys(t *testing.T) {
	const (
		n      = 200
		k      = 8
		shards = 4
	)
	hash := sampling.NewSeedHash(19)
	e, err := New(Config{Instances: 2, K: k, Shards: shards, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	// Even keys only, so a new odd key lands inside the slice.
	rng := rand.New(rand.NewSource(4))
	for j := 0; j < n; j++ {
		for i := 0; i < 2; i++ {
			if err := e.Ingest(i, uint64(2*j), 1+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	v0 := e.FreshView()
	st0 := e.Stats().Snapshot

	// Weight-only: an existing key's weight grows.
	if err := e.Ingest(0, 14, 100); err != nil {
		t.Fatal(err)
	}
	v1 := e.FreshView()
	st1 := e.Stats().Snapshot
	if v1.Version == v0.Version {
		t.Fatal("weight-only write did not move the version")
	}
	if st1.PlanRebuilds != st0.PlanRebuilds {
		t.Errorf("weight-only write: PlanRebuilds %d → %d, want unchanged", st0.PlanRebuilds, st1.PlanRebuilds)
	}
	if &v1.Keys[0] != &v0.Keys[0] {
		t.Error("weight-only rebuild did not reuse the merged key slice")
	}
	if got := st1.PartitionsRebuilt - st0.PartitionsRebuilt; got != shards {
		t.Errorf("PartitionsRebuilt advanced by %d, want %d (every shard)", got, shards)
	}
	if st1.PartitionsReused != 0 {
		t.Errorf("PartitionsReused = %d, want 0", st1.PartitionsReused)
	}

	// A new key in one shard.
	prev := slices.Clone(v1.Keys)
	if err := e.Ingest(1, 2*57+1, 2); err != nil {
		t.Fatal(err)
	}
	v2 := e.FreshView()
	st2 := e.Stats().Snapshot
	if got := st2.PlanRebuilds - st1.PlanRebuilds; got != 1 {
		t.Errorf("new key: PlanRebuilds advanced by %d, want 1", got)
	}
	if want := e.DumpState().Keys; !slices.Equal(v2.Keys, want) {
		t.Errorf("view keys (%d) differ from the sorted registry (%d)", len(v2.Keys), len(want))
	}
	if !slices.Equal(v1.Keys, prev) {
		t.Error("the key merge rewrote the previous view's key slice")
	}
	if err := checkExceptional(v2); err != nil {
		t.Fatal(err)
	}

	dst, err := New(Config{Instances: 2, K: k, Shards: shards, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	dst.FreshView()
	if err := dst.RestoreState(e.DumpState()); err != nil {
		t.Fatal(err)
	}
	got := dst.FreshView()
	if got.Version != v2.Version || !slices.Equal(got.Keys, v2.Keys) {
		t.Fatalf("restored view at version %d with %d keys, want %d with %d", got.Version, len(got.Keys), v2.Version, len(v2.Keys))
	}
	if !reflect.DeepEqual(dst.Snapshot(), e.Snapshot()) {
		t.Fatal("restored snapshot differs from the source's")
	}
}

// checkExceptional states the sparse view's invariants against its own
// dense synthesis: Exceptional is key-ascending, each Pos resolves to its
// key, and every dense outcome NOT in the list is the synthesized default
// — the default scheme at the key's own seed with nothing known. It
// returns the first violation (callers off the test goroutine report it
// with t.Error).
func checkExceptional(view SnapshotView) error {
	dense := view.Snapshot().Sample.Outcomes
	if len(dense) != len(view.Keys) {
		return fmt.Errorf("%d dense outcomes for %d keys", len(dense), len(view.Keys))
	}
	listed := make(map[int]bool, len(view.Exceptional))
	for i, x := range view.Exceptional {
		if i > 0 && x.Key <= view.Exceptional[i-1].Key {
			return fmt.Errorf("exceptional keys not ascending at %d", i)
		}
		if x.Pos < 0 || x.Pos >= len(view.Keys) || view.Keys[x.Pos] != x.Key {
			return fmt.Errorf("exceptional %d: Pos %d does not resolve to key %d", i, x.Pos, x.Key)
		}
		if !dense[x.Pos].Same(x.Outcome) {
			return fmt.Errorf("exceptional %d: dense outcome at %d differs from the listed one", i, x.Pos)
		}
		listed[x.Pos] = true
	}
	r := view.def.R()
	for j, o := range dense {
		if listed[j] {
			continue
		}
		def := sampling.TupleOutcome{Scheme: view.def, Rho: view.hash.U(view.Keys[j]), Known: make([]bool, r), Vals: make([]float64, r)}
		if !o.Same(def) || o.NumKnown() != 0 {
			return fmt.Errorf("unlisted outcome %d (key %d) is not the all-unknown default", j, view.Keys[j])
		}
	}
	return nil
}

// TestSnapshotViewExceptional checks the sparse view on a cut where most
// items reveal nothing: the exceptional list obeys its invariants, holds
// exactly the outcomes with a known entry, and is far shorter than Keys.
func TestSnapshotViewExceptional(t *testing.T) {
	d := dataset.Flows(dataset.FlowsConfig{N: 300, Seed: 11})
	hash := sampling.NewSeedHash(3)
	e, err := New(Config{Instances: d.R(), K: 8, Shards: 4, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	ingestMatrix(t, e, d.W)
	view := e.FreshView()
	if err := checkExceptional(view); err != nil {
		t.Fatal(err)
	}
	informative := 0
	for _, o := range view.Snapshot().Sample.Outcomes {
		if o.NumKnown() > 0 {
			informative++
		}
	}
	if got := len(view.Exceptional); got != informative || got == 0 || got > d.R()*8 {
		t.Fatalf("%d exceptional outcomes, want the %d informative ones (≤ r·k = %d)", got, informative, d.R()*8)
	}
	if view.Version != e.Version() {
		t.Errorf("view version %d != engine version %d", view.Version, e.Version())
	}
}

// TestConcurrentReadsDuringPartitionRebuilds races cached readers (exact
// and bounded-stale) against a single-key mutator, under -race: readers
// must always observe internally consistent views (version-monotone per
// reader, exceptional outcomes resolving into the key space) while
// rebuilds reuse the engine's cut buffers underneath them.
func TestConcurrentReadsDuringPartitionRebuilds(t *testing.T) {
	d := dataset.Flows(dataset.FlowsConfig{N: 500, Seed: 6})
	hash := sampling.NewSeedHash(13)
	e, err := New(Config{Instances: d.R(), K: 16, Shards: 8, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	ingestMatrix(t, e, d.W)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		w := 100.0
		for !stop.Load() {
			w *= 1.0001
			if err := e.Ingest(rng.Intn(d.R()), uint64(rng.Intn(d.N())), w); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func(reader int) {
			defer wg.Done()
			maxStale := time.Duration(0)
			if reader%2 == 1 {
				maxStale = time.Millisecond
			}
			var last uint64
			for iter := 0; iter < 400; iter++ {
				view := e.CachedView(maxStale)
				if view.Version < last {
					t.Errorf("reader %d: version went backwards %d → %d", reader, last, view.Version)
					return
				}
				last = view.Version
				// Materializing races other readers of the same view cell
				// and the writer's rebuilds — exactly what -race is here
				// to watch.
				snap := view.Snapshot()
				if len(snap.Keys) != len(snap.Sample.Outcomes) {
					t.Errorf("reader %d: %d keys vs %d outcomes", reader, len(snap.Keys), len(snap.Sample.Outcomes))
					return
				}
				if iter%16 == 0 {
					if err := checkExceptional(view); err != nil {
						t.Errorf("reader %d: %v", reader, err)
						return
					}
				}
			}
		}(reader)
	}
	// Let the readers run against live churn for a while, then stop the
	// writer and join everyone.
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	// Post-race exactness: an exact view now must carry the final version.
	if view := e.CachedView(0); view.Version != e.Version() {
		t.Errorf("final exact view at version %d, engine at %d", view.Version, e.Version())
	}
}
