package funcs

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/sampling"
)

func mustRGPlus(t *testing.T, p float64) RGPlus {
	t.Helper()
	f, err := NewRGPlus(p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRGPlusValue(t *testing.T) {
	tests := []struct {
		p    float64
		v    []float64
		want float64
	}{
		{1, []float64{0.6, 0.2}, 0.4},
		{2, []float64{0.6, 0.2}, 0.16000000000000003},
		{0.5, []float64{0.9, 0.65}, 0.5},
		{1, []float64{0.2, 0.6}, 0}, // increase-only
		{2, []float64{0.5, 0.5}, 0},
	}
	for _, tt := range tests {
		f := mustRGPlus(t, tt.p)
		if got := f.Value(tt.v); !numeric.EqualWithin(got, tt.want, 1e-12) {
			t.Errorf("RG%g+(%v) = %g, want %g", tt.p, tt.v, got, tt.want)
		}
	}
}

func TestRGPlusValidation(t *testing.T) {
	for _, p := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewRGPlus(p); err == nil {
			t.Errorf("NewRGPlus(%g) should fail", p)
		}
	}
}

func TestRGPlusLowerMatchesExample3(t *testing.T) {
	// Example 3: RG_{p+}(u, v) = max(0, v1 − max(v2, u))^p under PPS τ*=1.
	s := sampling.UniformTuple(2)
	for _, p := range []float64{0.5, 1, 2} {
		f := mustRGPlus(t, p)
		for _, v := range [][]float64{{0.6, 0.2}, {0.6, 0}} {
			for _, u := range []float64{0.05, 0.15, 0.2, 0.3, 0.45, 0.6, 0.7, 1} {
				got := f.Lower(s.Sample(v, u))
				want := math.Pow(math.Max(0, boolVal(v[0] >= u)*v[0]-math.Max(v[1], u)), p)
				if !numeric.EqualWithin(got, want, 1e-12) {
					t.Errorf("p=%g v=%v u=%g: Lower = %g, want %g", p, v, u, got, want)
				}
			}
		}
	}
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func TestRGPlusLowerUpperBracketValue(t *testing.T) {
	s := sampling.UniformTuple(2)
	f := mustRGPlus(t, 1)
	for _, v := range [][]float64{{0.6, 0.2}, {0.3, 0.7}, {0.9, 0}, {0.1, 0.1}} {
		val := f.Value(v)
		for _, u := range []float64{0.05, 0.25, 0.5, 0.75, 1} {
			o := s.Sample(v, u)
			lo, hi := f.Lower(o), f.Upper(o)
			if lo > val+1e-12 {
				t.Errorf("v=%v u=%g: Lower %g > Value %g", v, u, lo, val)
			}
			if hi < val-1e-12 {
				t.Errorf("v=%v u=%g: Upper %g < Value %g", v, u, hi, val)
			}
		}
	}
}

func TestRGPlusLStarClosedMatchesGeneric(t *testing.T) {
	// Closed form (Example 4) vs formula (31) evaluated through outcome
	// coarsening: they must agree for every p and outcome shape.
	s := sampling.UniformTuple(2)
	for _, p := range []float64{0.5, 1, 2, 1.5} {
		f := mustRGPlus(t, p)
		for _, v := range [][]float64{{0.6, 0.2}, {0.6, 0}, {0.9, 0.5}} {
			for _, u := range []float64{0.05, 0.15, 0.3, 0.55, 0.7, 1} {
				o := s.Sample(v, u)
				closed, ok := f.LStarClosed(o)
				if !ok {
					t.Fatalf("closed form should apply under common τ")
				}
				generic := core.LStarAt(OutcomeLB(f, o), o.Rho)
				if !numeric.EqualWithin(closed, generic, 1e-5) {
					t.Errorf("p=%g v=%v u=%g: closed %g vs generic %g", p, v, u, closed, generic)
				}
			}
		}
	}
}

func TestRGPlusLStarUnbiased(t *testing.T) {
	s := sampling.UniformTuple(2)
	for _, p := range []float64{0.5, 1, 2} {
		f := mustRGPlus(t, p)
		for _, v := range [][]float64{{0.6, 0.2}, {0.6, 0}, {0.9, 0.5}, {0.2, 0.6}} {
			est := func(u float64) float64 { return EstimateLStar(f, s.Sample(v, u)) }
			got, err := numeric.IntegrateToZero(est, 1, numeric.QuadOptions{AbsTol: 1e-10})
			if err != nil {
				t.Fatalf("p=%g v=%v: %v", p, v, err)
			}
			if want := f.Value(v); !numeric.EqualWithin(got, want, 1e-4) {
				t.Errorf("p=%g v=%v: E[L*] = %g, want %g", p, v, got, want)
			}
		}
	}
}

func TestRGPlusUStarClosedUnbiased(t *testing.T) {
	s := sampling.UniformTuple(2)
	for _, p := range []float64{0.5, 1, 2} {
		f := mustRGPlus(t, p)
		for _, v := range [][]float64{{0.6, 0.2}, {0.6, 0}, {0.9, 0.5}} {
			est := func(u float64) float64 { return EstimateUStar(f, s.Sample(v, u), core.Grid{}) }
			got, err := numeric.IntegrateToZero(est, 1, numeric.QuadOptions{AbsTol: 1e-10})
			if err != nil {
				t.Fatalf("p=%g v=%v: %v", p, v, err)
			}
			if want := f.Value(v); !numeric.EqualWithin(got, want, 1e-6) {
				t.Errorf("p=%g v=%v: E[U*] = %g, want %g", p, v, got, want)
			}
		}
	}
}

func TestRGPlusUStarClosedMatchesSolver(t *testing.T) {
	// The generic backward solver (core.UStarAt with the outcome family)
	// must reproduce Example 4's closed forms.
	s := sampling.UniformTuple(2)
	g := core.Grid{N: 600, Breaks: []float64{0.2, 0.6}}
	for _, p := range []float64{1, 2} {
		f := mustRGPlus(t, p)
		for _, tc := range []struct{ v1, v2, u float64 }{
			{0.6, 0.2, 0.4}, {0.6, 0.2, 0.1}, {0.6, 0, 0.3}, {0.6, 0.2, 0.8},
		} {
			o := s.Sample([]float64{tc.v1, tc.v2}, tc.u)
			closed, _ := f.UStarClosed(o)
			solver := core.UStarAt(OutcomeFamily(f, o), o.Rho, g)
			if math.Abs(closed-solver) > 5e-2*(1+closed) {
				t.Errorf("p=%g v=(%g,%g) u=%g: closed %g vs solver %g",
					p, tc.v1, tc.v2, tc.u, closed, solver)
			}
		}
	}
}

func TestRGPlusEstimatorHonesty(t *testing.T) {
	// Vectors (0.6, 0.2) and (0.6, 0.05) share outcomes for u > 0.2; the
	// estimates must coincide there (they are functions of the outcome).
	s := sampling.UniformTuple(2)
	for _, p := range []float64{0.5, 1, 2} {
		f := mustRGPlus(t, p)
		for _, u := range []float64{0.25, 0.4, 0.55, 0.7} {
			oa := s.Sample([]float64{0.6, 0.2}, u)
			ob := s.Sample([]float64{0.6, 0.05}, u)
			if !oa.Same(ob) {
				t.Fatalf("u=%g: outcomes should coincide", u)
			}
			la := EstimateLStar(f, oa)
			lbv := EstimateLStar(f, ob)
			if la != lbv {
				t.Errorf("p=%g u=%g: L* estimates differ across consistent data: %g vs %g", p, u, la, lbv)
			}
			ua := EstimateUStar(f, oa, core.Grid{})
			ub := EstimateUStar(f, ob, core.Grid{})
			if ua != ub {
				t.Errorf("p=%g u=%g: U* estimates differ across consistent data: %g vs %g", p, u, ua, ub)
			}
		}
	}
}

func TestRGPlusRevealSeedAndHT(t *testing.T) {
	s := sampling.UniformTuple(2)
	f := mustRGPlus(t, 1)
	o := s.Sample([]float64{0.6, 0.2}, 0.1)
	if !Revealed(f, o) {
		t.Fatal("both entries sampled: f should be revealed")
	}
	if got := RevealSeed(f, o); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("RevealSeed = %g, want 0.2", got)
	}
	if got := EstimateHT(f, o); math.Abs(got-2) > 1e-6 {
		t.Errorf("HT estimate = %g, want 2", got)
	}
	// Unrevealing outcome: estimate 0.
	if got := EstimateHT(f, s.Sample([]float64{0.6, 0.2}, 0.4)); got != 0 {
		t.Errorf("HT on unrevealing outcome = %g, want 0", got)
	}
}

func TestRGPlusHTUnbiased(t *testing.T) {
	s := sampling.UniformTuple(2)
	f := mustRGPlus(t, 2)
	v := []float64{0.6, 0.2}
	est := func(u float64) float64 { return EstimateHT(f, s.Sample(v, u)) }
	got, err := numeric.IntegrateToZero(est, 1, numeric.QuadOptions{AbsTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if want := f.Value(v); !numeric.EqualWithin(got, want, 1e-6) {
		t.Errorf("E[HT] = %g, want %g", got, want)
	}
}

func TestRGPlusHTRevealedByUpperBoundSqueeze(t *testing.T) {
	// v = (0.1, 0.5): for u ∈ (0.1, 0.5] entry 2 is known and entry 1 is
	// bounded below 0.5, so f = 0 is revealed without seeing entry 1.
	s := sampling.UniformTuple(2)
	f := mustRGPlus(t, 1)
	o := s.Sample([]float64{0.1, 0.5}, 0.3)
	if !o.Known[1] || o.Known[0] {
		t.Fatal("expected only entry 2 known")
	}
	if !Revealed(f, o) {
		t.Error("f=0 should be revealed by the bound squeeze")
	}
	if got := EstimateHT(f, o); got != 0 {
		t.Errorf("HT = %g, want 0 (value is 0)", got)
	}
}

func TestRGPlusScaledTauClosedForm(t *testing.T) {
	// Common τ ≠ 1: closed form rescales; must agree with the generic path.
	s, err := sampling.NewTupleScheme([]float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	f := mustRGPlus(t, 2)
	v := []float64{1.2, 0.4}
	for _, u := range []float64{0.1, 0.3, 0.55} {
		o := s.Sample(v, u)
		closed, ok := f.LStarClosed(o)
		if !ok {
			t.Fatal("common τ should use the closed form")
		}
		generic := core.LStarAt(OutcomeLB(f, o), o.Rho)
		if !numeric.EqualWithin(closed, generic, 1e-5) {
			t.Errorf("u=%g: closed %g vs generic %g", u, closed, generic)
		}
	}
}
