package estreg

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/funcs"
	"repro/internal/sampling"
)

// sparseView ingests an n-key two-instance data set on the order ladder
// {0.25, 0.5, 1}, with zero entries (a zero weight is never ingested, so
// about a quarter of each instance's entries are missing, and instance 1
// sees only the first n1 keys at all), into an engine of sketch size k and
// returns its view.
func sparseView(t *testing.T, n, n1, k int) engine.SnapshotView {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	ladder := []float64{0, 0.25, 0.5, 1}
	var updates []engine.Update
	for key := 0; key < n; key++ {
		for i := 0; i < 2; i++ {
			w := ladder[rng.Intn(len(ladder))]
			if i == 1 && key >= n1 {
				w = 0
			}
			updates = append(updates, engine.Update{Instance: i, Key: uint64(3 * key), Weight: w})
		}
	}
	eng, err := engine.New(engine.Config{Instances: 2, K: k, Shards: 4, Hash: sampling.NewSeedHash(5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestBatch(updates); err != nil {
		t.Fatal(err)
	}
	return eng.FreshView()
}

// TestSumSparseEqualsDenseSum is the sparse read path's contract: for
// every built-in estimator × every built-in f, on engine views over data
// with zero entries — a bottom-k cut with few of many items sampled, one
// where instance 1 holds fewer than k keys (no k-th rank: hasK false, a
// mixed default τ* vector), and one with fewer than k keys altogether
// (everything sampled) — SumSparse over the view's exceptional outcomes ==
// Sum over its dense outcome list in all four fields, for whole-set sums
// and for selections with duplicates, unsampled items and mixed order.
// Estimators under the empty-outcome rule must never ask for the dense
// list; voptimal and an f with f(0) ≠ 0 must.
func TestSumSparseEqualsDenseSum(t *testing.T) {
	lin, err := funcs.NewLinComb([]float64{1, -1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs := []funcs.F{funcs.RG{P: 1}, funcs.RG{P: 2}, funcs.RGPlus{P: 1}, funcs.MaxTuple{}, funcs.AndTuple{}, funcs.OrTuple{}, lin}
	names := []string{"lstar", "ustar", "ht", "voptimal",
		"order:vals=0.25,0.5,1;by=asc", "order:vals=0.25,0.5,1;by=desc", "order:vals=0.25,0.5,1;by=near:0.5"}
	reg := Default()
	for _, tc := range []struct {
		name       string
		n, n1, k   int
		allSampled bool
	}{
		{"bottomk", 120, 120, 2, false},
		{"instance-1-short", 120, 1, 2, false},
		{"fewer-than-k-keys", 6, 6, 32, true},
	} {
		view := sparseView(t, tc.n, tc.n1, tc.k)
		outcomes := view.Snapshot().Sample.Outcomes
		n := len(outcomes)
		sampled := make(map[int]bool)
		for _, x := range view.Exceptional {
			sampled[x.Pos] = true
		}
		var in, out []int
		for j := range outcomes {
			if sampled[j] {
				in = append(in, j)
			} else {
				out = append(out, j)
			}
		}
		if len(in) < 2 || tc.allSampled != (len(out) == 0) || len(out) == 1 {
			t.Fatalf("%s: %d sampled and %d unsampled items; not the regime the case names", tc.name, len(in), len(out))
		}
		selections := [][]int{nil, {in[1], in[0], in[0], n - 1, 0}, {}}
		if !tc.allSampled {
			selections = append(selections,
				[]int{in[0], in[0], out[0], out[0]},   // duplicates
				[]int{out[1], out[0]},                 // unsampled only
				[]int{n - 1, in[1], out[0], in[0], 0}, // mixed order
				[]int{in[len(in)-1], out[len(out)-1]}, // the tails
			)
		}
		for _, name := range names {
			for _, f := range fs {
				est, _, err := reg.Build(name, f, 2)
				if err != nil {
					t.Fatal(err)
				}
				_, ruled := est.(zeroOnEmpty)
				if ruled == (name == "voptimal") {
					t.Fatalf("%s/%s: rule applied = %v", name, f.Name(), ruled)
				}
				for _, sel := range selections {
					// U* costs milliseconds per sampled item: it gets the
					// whole-set sum where few items are sampled, and the
					// short selections.
					if name == "ustar" && (sel == nil && tc.allSampled || len(sel) > 4) {
						continue
					}
					denseCalls := 0
					got, gotErr := SumSparse(est, n, view.Exceptional, sel, func() []sampling.TupleOutcome {
						denseCalls++
						return outcomes
					})
					want, wantErr := Sum(est, outcomes, sel)
					if gotErr != nil || wantErr != nil {
						t.Fatalf("%s %s/%s items=%v: sparse error %v, dense error %v", tc.name, name, f.Name(), sel, gotErr, wantErr)
					}
					if got != want {
						t.Errorf("%s %s/%s items=%v: sparse %+v != dense %+v", tc.name, name, f.Name(), sel, got, want)
					}
					if ruled != (denseCalls == 0) {
						t.Errorf("%s %s/%s items=%v: dense list requested %d times with rule applied = %v", tc.name, name, f.Name(), sel, denseCalls, ruled)
					}
				}
			}
		}

		// f(0) = 1: every all-unknown outcome owes its share, so the
		// estimator must see the dense list.
		shifted, _, err := reg.Build("lstar", shiftedRange{funcs.RG{P: 1}}, 2)
		if err != nil {
			t.Fatal(err)
		}
		denseCalls := 0
		got, err := SumSparse(shifted, n, view.Exceptional, nil, func() []sampling.TupleOutcome {
			denseCalls++
			return outcomes
		})
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := Sum(shifted, outcomes, nil); got != want || denseCalls != 1 {
			t.Errorf("%s f(0)=1: sparse %+v (dense list requested %d times), dense %+v", tc.name, got, denseCalls, want)
		}
	}
}

// TestSumSparseErrorParity: an estimator failing on an exceptional
// outcome, and a selection outside the list, surface with Sum's exact
// message — the merged index, not a position in the sparse list.
func TestSumSparseErrorParity(t *testing.T) {
	view := sparseView(t, 120, 120, 4)
	outcomes := view.Snapshot().Sample.Outcomes
	reg := Default()
	if err := reg.Register("failing", func(string, funcs.F, int) (Estimator, Meta, error) {
		est := funcEstimator{name: "failing", eval: func(sampling.TupleOutcome) (float64, error) {
			return 0, errors.New("boom")
		}}
		return est, Meta{Estimator: "failing", Unbiased: true, Nonnegative: true}, nil
	}); err != nil {
		t.Fatal(err)
	}
	est, _, err := reg.Build("failing", funcs.RG{P: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := est.(zeroOnEmpty); !ok {
		t.Fatal("the failing estimator must carry the rule to take the sparse path")
	}
	noDense := func() []sampling.TupleOutcome {
		t.Error("dense list requested on the sparse path")
		return outcomes
	}
	last := view.Exceptional[len(view.Exceptional)-1].Pos
	for _, sel := range [][]int{nil, {last, 0}, {0, len(outcomes)}, {-1}} {
		_, gotErr := SumSparse(est, len(outcomes), view.Exceptional, sel, noDense)
		_, wantErr := Sum(est, outcomes, sel)
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("items=%v: sparse error %v, dense error %v", sel, gotErr, wantErr)
		}
	}
}
