package estreg

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/funcs"
	"repro/internal/order"
	"repro/internal/sampling"
)

func rg1(t *testing.T) funcs.F {
	t.Helper()
	f, err := funcs.NewRG(1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDefaultNames(t *testing.T) {
	got := Default().Names()
	want := []string{"ht", "lstar", "order", "ustar", "voptimal"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

// TestSumBitIdenticalToBatch asserts the registry's lstar/ustar/ht sums
// reproduce dataset.CoordinatedSample.EstimateSum bit-for-bit on the same
// bottom-k sample — the property that lets the serving path answer with
// the batch pipeline's numbers.
func TestSumBitIdenticalToBatch(t *testing.T) {
	d := dataset.Flows(dataset.FlowsConfig{N: 300, Seed: 3})
	cs, err := dataset.SampleBottomK(d, 16, sampling.NewSeedHash(9))
	if err != nil {
		t.Fatal(err)
	}
	f := rg1(t)
	reg := Default()
	for _, tc := range []struct {
		name string
		kind dataset.EstimatorKind
	}{
		{"lstar", dataset.KindLStar},
		{"ustar", dataset.KindUStar},
		{"ht", dataset.KindHT},
	} {
		est, meta, err := reg.Build(tc.name, f, d.R())
		if err != nil {
			t.Fatal(err)
		}
		if meta.Estimator != tc.name || meta.Func != f.Name() {
			t.Errorf("%s meta = %+v", tc.name, meta)
		}
		for _, items := range [][]int{nil, {0, 5, 17, 100}} {
			want, err := cs.EstimateSum(f, tc.kind, items)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Sum(est, cs.Outcomes, items)
			if err != nil {
				t.Fatal(err)
			}
			if got.Estimate != want {
				t.Errorf("%s items=%v: Sum = %v, batch EstimateSum = %v", tc.name, items, got.Estimate, want)
			}
			wantItems := len(cs.Outcomes)
			if items != nil {
				wantItems = len(items)
			}
			if got.Items != wantItems {
				t.Errorf("%s: Items = %d, want %d", tc.name, got.Items, wantItems)
			}
			if got.SecondMoment < 0 || got.MaxItem < 0 {
				t.Errorf("%s: negative diagnostics %+v", tc.name, got)
			}
		}
	}
}

// TestVOptimalOracleOnRevealedOutcome: where the outcome reveals the full
// tuple, the plug-in v-optimal equals the Theorem 2.1 oracle customized to
// the true data.
func TestVOptimalOracleOnRevealedOutcome(t *testing.T) {
	f := rg1(t)
	est, meta, err := Default().Build("voptimal", f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Unbiased {
		t.Error("voptimal must not claim unbiasedness")
	}
	scheme := sampling.UniformTuple(2)
	v := []float64{0.9, 0.4}
	o := scheme.Sample(v, 0.3) // both entries ≥ 0.3: fully revealed
	if o.NumKnown() != 2 {
		t.Fatalf("outcome not fully revealed: %+v", o)
	}
	got, err := est.Estimate(o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := funcs.EstimateVOptimal(f, scheme, v, 0.3, core.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("voptimal on revealed outcome = %v, want oracle %v", got, want)
	}
}

// TestOrderEstimatorMatchesOrderPackage: on a ladder workload sampled with
// the matching PPS scheme (τ* ≡ 1, π(x) = x) the registry's order
// estimator reproduces order.Estimator.Estimate exactly, for all three
// priority orders.
func TestOrderEstimatorMatchesOrderPackage(t *testing.T) {
	f := rg1(t)
	ladder := []float64{0.25, 0.5, 1}
	scheme, err := order.NewScheme(ladder, ladder)
	if err != nil {
		t.Fatal(err)
	}
	dom := order.GridDomain(scheme, 2)
	pps := sampling.UniformTuple(2)
	for _, tc := range []struct {
		spec string
		less func(a, b []float64) bool
	}{
		{"vals=0.25,0.5,1;by=asc", order.LessByF(f.Value)},
		{"vals=0.25,0.5,1;by=desc", order.LessByFDesc(f.Value)},
		{"vals=0.25,0.5,1;by=near:0.25", func(a, b []float64) bool {
			return math.Abs(f.Value(a)-0.25) < math.Abs(f.Value(b)-0.25)
		}},
	} {
		est, meta, err := Default().Build("order:"+tc.spec, f, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !meta.Unbiased || !meta.Nonnegative {
			t.Errorf("%s meta = %+v", tc.spec, meta)
		}
		if est.Name() != "order:"+tc.spec {
			t.Errorf("Name() = %q", est.Name())
		}
		ref, err := order.New(order.Problem{Scheme: scheme, F: f.Value, Domain: dom, Less: tc.less})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range dom {
			for _, u := range []float64{0.1, 0.25, 0.4, 0.5, 0.8, 1} {
				got, err := est.Estimate(pps.Sample(v, u))
				if err != nil {
					t.Fatalf("%s v=%v u=%g: %v", tc.spec, v, u, err)
				}
				if want := ref.Estimate(v, u); got != want {
					t.Errorf("%s v=%v u=%g: registry %v, order pkg %v", tc.spec, v, u, got, want)
				}
			}
		}
	}
}

// TestOrderEstimatorCoarsens: an outcome more informative than the ladder
// (permissive streaming thresholds) is coarsened, not rejected: a known
// value whose ladder probability is below the seed drops to unknown.
func TestOrderEstimatorCoarsens(t *testing.T) {
	f := rg1(t)
	est, _, err := Default().Build("order:vals=0.25,0.5,1;by=asc", f, 2)
	if err != nil {
		t.Fatal(err)
	}
	// τ* = 1e-12: everything positive is known at any seed — the engine's
	// always-included regime.
	permissive, err := sampling.NewTupleScheme([]float64{1e-12, 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	o := permissive.Sample([]float64{0.25, 1}, 0.9)
	if o.NumKnown() != 2 {
		t.Fatalf("outcome not fully known: %+v", o)
	}
	got, err := est.Estimate(o)
	if err != nil {
		t.Fatal(err)
	}
	// Under the ladder at seed 0.9 only the value-1 entry is visible
	// (π(0.25) = 0.25 < 0.9), so the estimate must match the discrete
	// outcome {unknown, 1}.
	ladder := []float64{0.25, 0.5, 1}
	scheme, _ := order.NewScheme(ladder, ladder)
	ref, err := order.New(order.Problem{
		Scheme: scheme, F: f.Value, Domain: order.GridDomain(scheme, 2),
		Less: order.LessByF(f.Value),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.EstimateOutcome([]bool{false, true}, []float64{0, 1}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("coarsened estimate %v, want %v", got, want)
	}
	// Off-ladder known values have no discrete counterpart: reject.
	if _, err := est.Estimate(permissive.Sample([]float64{0.3, 1}, 0.9)); err == nil {
		t.Error("off-ladder value should fail")
	}
}

func TestBuildErrors(t *testing.T) {
	f := rg1(t)
	reg := Default()
	for _, name := range []string{
		"",
		"nope",
		"lstar:spec",
		"ustar:spec",
		"ht:spec",
		"voptimal:spec",
		"order",                         // missing spec
		"order:vals=1;by=sideways",      // bad order
		"order:vals=1;pis=2",            // π > 1
		"order:nope=1",                  // unknown field
		"order:vals=0.5;pis=0.5;by",     // not key=value
		"order:vals=0.1;by=near:x",      // bad target
		"order:vals=1,2,3,4,5,6,7,8,9",  // values above 1 need explicit pis
		"order:vals=0.25,0.5;pis=0.5,1", // ok ladder, but f arity below
	} {
		arity := 2
		if name == "order:vals=0.25,0.5;pis=0.5,1" {
			arity = 3 // rgplus-style arity mismatch via f.Arity
		}
		var fn funcs.F = f
		if arity == 3 {
			var err error
			fn, err = funcs.NewRGPlus(1) // arity 2
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := reg.Build(name, fn, arity); err == nil {
			t.Errorf("Build(%q) should fail", name)
		}
	}
	if _, _, err := reg.Build("lstar", nil, 2); err == nil {
		t.Error("nil func should fail")
	}
	if _, _, err := reg.Build("lstar", f, 0); err == nil {
		t.Error("zero instances should fail")
	}
	// Domain blow-up guard: (9+1)^5 = 100000 > 4096.
	big, err := funcs.NewLinComb([]float64{1, 1, 1, 1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Build("order:vals=0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9;by=asc", big, 5); err == nil {
		t.Error("huge order domain should fail")
	}
}

func TestRegisterAndAllow(t *testing.T) {
	reg := Default()
	f := rg1(t)
	// Custom registration under a fresh name.
	err := reg.Register("half_ht", func(spec string, f funcs.F, _ int) (Estimator, Meta, error) {
		est := funcEstimator{name: "half_ht", eval: func(o sampling.TupleOutcome) (float64, error) {
			return funcs.EstimateHT(f, o) / 2, nil
		}}
		return est, Meta{Estimator: "half_ht"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Build("half_ht", f, 2); err != nil {
		t.Fatal(err)
	}
	// Duplicate and malformed registrations fail.
	if err := reg.Register("half_ht", nil); err == nil {
		t.Error("nil builder should fail")
	}
	if err := reg.Register("lstar", func(string, funcs.F, int) (Estimator, Meta, error) { return nil, Meta{}, nil }); err == nil {
		t.Error("duplicate name should fail")
	}
	for _, bad := range []string{"", "has:colon", "Upper", "sp ace"} {
		if err := reg.Register(bad, func(string, funcs.F, int) (Estimator, Meta, error) { return nil, Meta{}, nil }); err == nil {
			t.Errorf("Register(%q) should fail", bad)
		}
	}
	// Allowlist restricts Build and Names.
	if err := reg.Allow([]string{"lstar", "ht"}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Names(); strings.Join(got, ",") != "ht,lstar" {
		t.Errorf("allowed Names() = %v", got)
	}
	if _, _, err := reg.Build("ustar", f, 2); err == nil {
		t.Error("disallowed estimator should fail")
	}
	if _, _, err := reg.Build("lstar", f, 2); err != nil {
		t.Errorf("allowed estimator failed: %v", err)
	}
	if err := reg.Allow([]string{"nope"}); err == nil {
		t.Error("allowing an unregistered name should fail")
	}
	// Clearing the allowlist restores everything.
	if err := reg.Allow(nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Build("ustar", f, 2); err != nil {
		t.Errorf("cleared allowlist: %v", err)
	}
}

func TestSumErrors(t *testing.T) {
	f := rg1(t)
	est, _, err := Default().Build("lstar", f, 2)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := []sampling.TupleOutcome{sampling.UniformTuple(2).Sample([]float64{0.5, 0.2}, 0.4)}
	if _, err := Sum(est, outcomes, []int{3}); err == nil {
		t.Error("out-of-range item should fail")
	}
	if _, err := Sum(est, outcomes, []int{-1}); err == nil {
		t.Error("negative item should fail")
	}
}

// ladderSample is a two-instance bottom-k sample whose weights lie on the
// ladder {0.25, 0.5, 1} (so an order: estimator accepts every sampled
// entry), with the unequal per-item conditional thresholds bottom-k
// conditioning produces.
func ladderSample(t *testing.T) dataset.CoordinatedSample {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ladder := []float64{0, 0.25, 0.5, 1}
	w := [][]float64{make([]float64, 120), make([]float64, 120)}
	for i := range w {
		for k := range w[i] {
			w[i][k] = ladder[rng.Intn(len(ladder))]
		}
	}
	d, err := dataset.New(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := dataset.SampleBottomK(d, 6, sampling.NewSeedHash(5))
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// shiftedRange is RG1 + 1: a nonnegative f with f(0) = 1, whose estimators
// owe every outcome — the all-unknown ones included — a share of that 1.
// (The range is a field, not embedded: RG's closed forms must not carry
// over.)
type shiftedRange struct{ rg funcs.RG }

func (f shiftedRange) Name() string                               { return "shifted" }
func (f shiftedRange) Arity() int                                 { return f.rg.Arity() }
func (f shiftedRange) Value(v []float64) float64                  { return f.rg.Value(v) + 1 }
func (f shiftedRange) Lower(o sampling.TupleOutcome) float64      { return f.rg.Lower(o) + 1 }
func (f shiftedRange) Upper(o sampling.TupleOutcome) float64      { return f.rg.Upper(o) + 1 }
func (f shiftedRange) Family(o sampling.TupleOutcome) [][]float64 { return f.rg.Family(o) }

// TestEmptyOutcomeRuleIsIdentity: the zero Build substitutes on outcomes
// with no known entry is the value the estimator itself computes there —
// the rule saves work and changes no served number.
func TestEmptyOutcomeRuleIsIdentity(t *testing.T) {
	cs := ladderSample(t)
	var empty []int
	for k, o := range cs.Outcomes {
		if o.NumKnown() == 0 {
			if o.Scheme.Tau[0] == o.Scheme.Tau[1] {
				t.Fatalf("item %d: equal thresholds %v; the test wants the serving regime", k, o.Scheme.Tau)
			}
			empty = append(empty, k)
		}
	}
	if len(empty) < len(cs.Outcomes)/2 || len(empty) == len(cs.Outcomes) {
		t.Fatalf("%d of %d outcomes empty; want most but not all", len(empty), len(cs.Outcomes))
	}
	lin, err := funcs.NewLinComb([]float64{1, -1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs := []funcs.F{funcs.RG{P: 1}, funcs.RG{P: 2}, funcs.RGPlus{P: 1}, funcs.MaxTuple{}, funcs.AndTuple{}, funcs.OrTuple{}, lin}
	reg := Default()
	for _, name := range []string{"lstar", "ht", "ustar", "order:vals=0.25,0.5,1;by=asc"} {
		base, spec, _ := strings.Cut(name, ":")
		for _, f := range fs {
			raw, _, err := builtins()[base](spec, f, 2) // the builder alone: no rule
			if err != nil {
				t.Fatal(err)
			}
			ruled, meta, err := reg.Build(name, f, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := ruled.(zeroOnEmpty); !ok || !meta.Unbiased || !meta.Nonnegative {
				t.Fatalf("%s/%s: Build returned %T (meta %+v), want the rule applied", name, f.Name(), ruled, meta)
			}
			// U* solves backward for milliseconds per outcome to find its
			// zero; a few outcomes and a short selection keep that bounded.
			check, items := empty, []int(nil)
			if base == "ustar" {
				check, items = empty[:3], append([]int{0, 1, 2, 3}, empty[:3]...)
			}
			for _, k := range check {
				x, err := raw.Estimate(cs.Outcomes[k])
				if err != nil || x != 0 {
					t.Fatalf("%s/%s: unruled estimate on empty outcome %d = %v, %v; want exactly 0", name, f.Name(), k, x, err)
				}
			}
			for _, sel := range [][]int{items, {empty[0], 0, empty[1]}} {
				want, err := Sum(raw, cs.Outcomes, sel)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Sum(ruled, cs.Outcomes, sel)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s/%s items=%v: Sum with the rule %+v, without %+v", name, f.Name(), sel, got, want)
				}
			}
			// A selection of empty outcomes only still counts its items
			// and reports the zero as its maximum.
			got, err := Sum(ruled, cs.Outcomes, empty[:2])
			if err != nil || got != (SumResult{Items: 2}) {
				t.Errorf("%s/%s: Sum over two empty outcomes = %+v, %v", name, f.Name(), got, err)
			}
			_, rawErr := Sum(raw, cs.Outcomes, []int{len(cs.Outcomes)})
			_, ruledErr := Sum(ruled, cs.Outcomes, []int{len(cs.Outcomes)})
			if rawErr == nil || ruledErr == nil || rawErr.Error() != ruledErr.Error() {
				t.Errorf("%s/%s: out-of-range item: %v with the rule, %v without", name, f.Name(), ruledErr, rawErr)
			}
		}
	}

	// Not covered: an estimator that does not declare unbiasedness, and a
	// function that is positive at the origin.
	o := cs.Outcomes[empty[0]]
	vopt, _, err := reg.Build("voptimal", rg1(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := vopt.(zeroOnEmpty); ok {
		t.Error("voptimal is not unbiased: the rule must not apply")
	}
	shifted, _, err := reg.Build("lstar", shiftedRange{funcs.RG{P: 1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := shifted.(zeroOnEmpty); ok {
		t.Error("f(0) = 1: the rule must not apply")
	}
	// L* of the constant lower bound 1 is 1/ρ − (1/ρ − 1) = 1 at every seed.
	if x, err := shifted.Estimate(o); err != nil || math.Abs(x-1) > 1e-9 {
		t.Errorf("lstar of f(0)=1 on an empty outcome = %v, %v; want 1", x, err)
	}
	// A function whose arity does not fit is left to fail on its own terms.
	if mismatched, _, err := reg.Build("lstar", lin, 3); err != nil {
		t.Fatal(err)
	} else if _, ok := mismatched.(zeroOnEmpty); ok {
		t.Error("arity mismatch: the rule must not evaluate f at a wrong-length origin")
	}
}
