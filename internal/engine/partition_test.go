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
	for i := range w {
		for j, x := range w[i] {
			if x > 0 {
				if err := e.Ingest(i, uint64(j), x); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
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
// boundary across partitions.
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
	// The tied keys must span partitions for the straddle case to mean it.
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

// TestIncrementalSingleKeyMutations drives the incremental rebuild path
// through randomized single-key mutations — the workload the partitioned
// snapshot exists for — asserting after every round that Snapshot() stays
// bit-identical to a from-scratch dataset.SampleBottomK over the same
// aggregated matrix. Occasional brand-new keys force merge-plan rebuilds
// alongside the weight-only fast path.
func TestIncrementalSingleKeyMutations(t *testing.T) {
	const (
		n0     = 400
		k      = 16
		shards = 8
		rounds = 60
	)
	hash := sampling.NewSeedHash(31)
	rng := rand.New(rand.NewSource(77))
	w := make([][]float64, 2)
	for i := range w {
		w[i] = make([]float64, n0)
		for j := range w[i] {
			w[i][j] = 0.1 + 10*rng.Float64()
		}
	}
	e := rebuildEngine(t, w, k, shards, hash)
	requireMatchesMatrix(t, e, w, k, hash)

	for round := 0; round < rounds; round++ {
		if round%10 == 4 {
			// Registry-only mutation: a fresh key with a weight so small its
			// rank cannot enter any bottom-(k+1) heap. The mask bit still
			// flips (snapshot-visible), but no retained rank moves, so the
			// global thresholds must not move.
			for i := range w {
				w[i] = append(w[i], 0)
			}
			j := len(w[0]) - 1
			w[0][j] = 1e-9
			if err := e.Ingest(0, uint64(j), w[0][j]); err != nil {
				t.Fatal(err)
			}
		} else if round%10 == 9 {
			// Grow the key space: a fresh column makes exactly one shard's
			// key set change, so the merge plan must be rebuilt.
			for i := range w {
				w[i] = append(w[i], 0.1+10*rng.Float64())
			}
			j := len(w[0]) - 1
			for i := range w {
				if err := e.Ingest(i, uint64(j), w[i][j]); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			// Weight-only mutation of a single existing key: strictly above
			// the folded maximum so the ingest is snapshot-visible.
			i, j := rng.Intn(len(w)), rng.Intn(len(w[0]))
			w[i][j] = w[i][j]*1.25 + 0.01
			if err := e.Ingest(i, uint64(j), w[i][j]); err != nil {
				t.Fatal(err)
			}
		}
		requireMatchesMatrix(t, e, w, k, hash)
	}
	st := e.Stats()
	if st.Snapshot.Rebuilds == 0 || st.Snapshot.PartitionsReused == 0 {
		t.Errorf("incremental path unused: %+v", st.Snapshot)
	}
	if st.Snapshot.PlanRebuilds < 2 {
		t.Errorf("PlanRebuilds = %d, want ≥ 2 (new keys appeared)", st.Snapshot.PlanRebuilds)
	}
}

// TestThresholdStableSkip pins the registry-only accounting
// deterministically: with every bottom-(k+1) heap full of weight-~1 keys, a
// new key at weight 1e-9 (rank ≥ 1e9·u, far above every boundary) is a
// registry-only mutation — the rebuild touches exactly one partition,
// refreshes no global threshold, and stays bit-identical to the batch
// reduction.
func TestThresholdStableSkip(t *testing.T) {
	const (
		n      = 256
		k      = 4
		shards = 4
	)
	hash := sampling.NewSeedHash(21)
	w := [][]float64{make([]float64, n), make([]float64, n)}
	rng := rand.New(rand.NewSource(3))
	for i := range w {
		for j := range w[i] {
			w[i][j] = 1 + rng.Float64()
		}
	}
	e := rebuildEngine(t, w, k, shards, hash)
	requireMatchesMatrix(t, e, w, k, hash)
	st0 := e.Stats().Snapshot

	for i := range w {
		w[i] = append(w[i], 0)
	}
	j := len(w[0]) - 1
	w[0][j] = 1e-9
	if err := e.Ingest(0, uint64(j), w[0][j]); err != nil {
		t.Fatal(err)
	}
	requireMatchesMatrix(t, e, w, k, hash)
	st1 := e.Stats().Snapshot

	if got := st1.Rebuilds - st0.Rebuilds; got != 1 {
		t.Fatalf("Rebuilds advanced by %d, want 1", got)
	}
	if got := st1.ThresholdRefreshes - st0.ThresholdRefreshes; got != 0 {
		t.Errorf("ThresholdRefreshes advanced by %d, want 0", got)
	}
	if got := st1.PartitionsRebuilt - st0.PartitionsRebuilt; got != 1 {
		t.Errorf("PartitionsRebuilt advanced by %d, want 1 (single dirty shard)", got)
	}
	if got := st1.PartitionsReused - st0.PartitionsReused; got != shards-1 {
		t.Errorf("PartitionsReused advanced by %d, want %d", got, shards-1)
	}
}

// TestSinglePartitionRebuild pins the tentpole invariant deterministically:
// with K ≥ n the global thresholds cannot move (fewer than k retained
// ranks per instance keeps every item unconditionally included), so a
// single-key weight bump must re-reduce exactly one partition, reuse the
// other shards' verbatim, and keep the merge plan.
func TestSinglePartitionRebuild(t *testing.T) {
	const (
		n      = 64
		k      = 128
		shards = 8
	)
	hash := sampling.NewSeedHash(5)
	w := [][]float64{make([]float64, n), make([]float64, n)}
	rng := rand.New(rand.NewSource(9))
	for i := range w {
		for j := range w[i] {
			w[i][j] = 1 + rng.Float64()
		}
	}
	e := rebuildEngine(t, w, k, shards, hash)
	e.FreshView()
	st0 := e.Stats().Snapshot
	before := e.Stats().PerShard

	const hot = 17
	w[0][hot] *= 3
	if err := e.Ingest(0, hot, w[0][hot]); err != nil {
		t.Fatal(err)
	}
	e.FreshView()
	st1 := e.Stats().Snapshot

	if got := st1.Rebuilds - st0.Rebuilds; got != 1 {
		t.Fatalf("Rebuilds advanced by %d, want 1", got)
	}
	if got := st1.PartitionsRebuilt - st0.PartitionsRebuilt; got != 1 {
		t.Errorf("PartitionsRebuilt advanced by %d, want 1 (single dirty shard)", got)
	}
	if got := st1.PartitionsReused - st0.PartitionsReused; got != shards-1 {
		t.Errorf("PartitionsReused advanced by %d, want %d", got, shards-1)
	}
	if got := st1.ThresholdRefreshes - st0.ThresholdRefreshes; got != 0 {
		t.Errorf("ThresholdRefreshes advanced by %d, want 0 (K ≥ n)", got)
	}
	if got := st1.PlanRebuilds - st0.PlanRebuilds; got != 0 {
		t.Errorf("PlanRebuilds advanced by %d, want 0 (key set unchanged)", got)
	}

	// Exactly the hot key's shard was re-reduced; every other partition
	// is the same reduction.
	hotShard := e.shardOf(hot)
	for s, ps := range e.Stats().PerShard {
		got := ps.PartitionRebuilds - before[s].PartitionRebuilds
		if s == hotShard && got != 1 {
			t.Errorf("shard %d (hot) re-reduced %d times across the rebuild, want 1", s, got)
		}
		if s != hotShard && got != 0 {
			t.Errorf("shard %d re-reduced %d times without a mutation", s, got)
		}
	}
	requireMatchesMatrix(t, e, w, k, hash)

	// Per-shard stats agree with the rebuild accounting.
	st := e.Stats()
	var mutSum uint64
	keySum := 0
	for _, ps := range st.PerShard {
		mutSum += ps.Mutations
		keySum += ps.Keys
	}
	if mutSum != st.Version {
		t.Errorf("per-shard mutations sum %d != version %d", mutSum, st.Version)
	}
	if keySum != st.Keys {
		t.Errorf("per-shard keys sum %d != keys %d", keySum, st.Keys)
	}
	if got := st.PerShard[hotShard].PartitionRebuilds; got < 2 {
		t.Errorf("hot shard PartitionRebuilds = %d, want ≥ 2", got)
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
	ingestDataset(t, e, d, nil, false)
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

// TestRestoreStateResetsPartitions guards the restore/partition interplay:
// RestoreState parks the dumped version on shard 0, so partitions cut
// BEFORE the restore (when the engine was empty) would match shards
// 1..N-1's untouched mutation counters and be wrongly reused if restore
// didn't drop them.
func TestRestoreStateResetsPartitions(t *testing.T) {
	d := dataset.Flows(dataset.FlowsConfig{N: 200, Seed: 23})
	hash := sampling.NewSeedHash(8)
	src, err := New(Config{Instances: d.R(), K: 10, Shards: 8, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	ingestDataset(t, src, d, nil, false)
	want := src.Snapshot()

	dst, err := New(Config{Instances: d.R(), K: 10, Shards: 8, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	// Seed stale empty partitions before the restore.
	if got := dst.Snapshot(); len(got.Keys) != 0 {
		t.Fatalf("empty engine snapshot has %d keys", len(got.Keys))
	}
	if err := dst.RestoreState(src.DumpState()); err != nil {
		t.Fatal(err)
	}
	if got := dst.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("post-restore snapshot differs from source (stale partitions reused?)")
	}
}

// TestMergeStateRebuildsDirtyPartitions: merging advances per-shard
// mutation counters, so a snapshot taken before the merge must be
// invalidated partition-by-partition and the result must equal the batch
// reduction of the union.
func TestMergeStateRebuildsDirtyPartitions(t *testing.T) {
	hash := sampling.NewSeedHash(44)
	rng := rand.New(rand.NewSource(12))
	const n = 120
	whole := [][]float64{make([]float64, n), make([]float64, n)}
	for i := range whole {
		for j := range whole[i] {
			whole[i][j] = 0.5 + rng.Float64()
		}
	}
	// Keys n/2..n-1 are unknown to the engine pre-merge, so the pre-merge
	// comparison matrix is the truncated prefix, not a zero-padded one
	// (the batch sampler emits outcomes even for all-zero columns).
	half := [][]float64{whole[0][:n/2], whole[1][:n/2]}
	other, err := New(Config{Instances: 2, K: 12, Shards: 4, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	for i := range whole {
		for j := n / 2; j < n; j++ {
			if err := other.Ingest(i, uint64(j), whole[i][j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	e := rebuildEngine(t, half, 12, 4, hash)
	requireMatchesMatrix(t, e, half, 12, hash) // populate partitions pre-merge
	if err := e.MergeState(other.DumpState()); err != nil {
		t.Fatal(err)
	}
	requireMatchesMatrix(t, e, whole, 12, hash)
}

// TestConcurrentReadsDuringPartitionRebuilds races cached readers (exact
// and bounded-stale) against a single-key mutator, under -race: readers
// must always observe internally consistent views (version-monotone per
// reader, parts bijective into the key space) while partitions are being
// re-reduced and reused underneath them.
func TestConcurrentReadsDuringPartitionRebuilds(t *testing.T) {
	d := dataset.Flows(dataset.FlowsConfig{N: 500, Seed: 6})
	hash := sampling.NewSeedHash(13)
	e, err := New(Config{Instances: d.R(), K: 16, Shards: 8, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	ingestDataset(t, e, d, nil, false)

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
