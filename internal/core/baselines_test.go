package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/numeric"
)

func TestHTUnbiasedAndVariance(t *testing.T) {
	// v=(0.6,0.2), RG1+: f(v)=0.4 revealed iff both sampled, i.e. u ≤ 0.2.
	est, err := HT(0.4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got := MeanOf(est); !numeric.EqualWithin(got, 0.4, 1e-8) {
		t.Errorf("E[HT] = %g, want 0.4", got)
	}
	if got, want := SquareOf(est), HTSquare(0.4, 0.2); !numeric.EqualWithin(got, want, 1e-8) {
		t.Errorf("E[HT²] = %g, want %g", got, want)
	}
	if got := est(0.2); got != 2 {
		t.Errorf("HT(0.2) = %g, want 2", got)
	}
	if got := est(0.21); got != 0 {
		t.Errorf("HT(0.21) = %g, want 0", got)
	}
}

func TestHTInapplicableOnZeroReveal(t *testing.T) {
	// Paper Section 1: estimating the range of (0.5, 0) under PPS has zero
	// probability of revealing f(v); HT does not exist.
	if _, err := HT(0.5, 0); !errors.Is(err, ErrHTInapplicable) {
		t.Errorf("HT(0.5, 0) error = %v, want ErrHTInapplicable", err)
	}
	if math.IsInf(HTSquare(0.5, 0), 1) == false {
		t.Error("HTSquare with zero reveal should be +Inf")
	}
	// Zero value is fine: the all-zero estimator.
	est, err := HT(0, 0)
	if err != nil {
		t.Fatalf("HT(0,0) error: %v", err)
	}
	if est(0.5) != 0 {
		t.Error("HT(0,0) should be identically zero")
	}
}

func TestLStarDominatesHT(t *testing.T) {
	// Theorem 4.2 corollary: L* dominates every monotone estimator,
	// including HT. Compare E[f̂²] on a grid of data vectors.
	for _, v := range [][2]float64{{0.6, 0.2}, {0.9, 0.5}, {0.4, 0.1}, {0.99, 0.01}} {
		v1, v2 := v[0], v[1]
		lb := rg1pLB(v1, v2)
		lsq := SquareOf(LStarSeed(lb))
		hsq := HTSquare(v1-v2, v2) // reveal prob = v2 under PPS τ*=1
		if lsq > hsq+1e-6 {
			t.Errorf("v=(%g,%g): E[L*²]=%g > E[HT²]=%g", v1, v2, lsq, hsq)
		}
	}
}

func TestDyadicUnbiasedOnSmoothLB(t *testing.T) {
	tests := []struct {
		name  string
		lb    LowerBoundFunc
		value float64
	}{
		{"rg1p (0.6,0)", rg1pLB(0.6, 0), 0.6},
		{"linear", func(u float64) float64 { return 1 - u }, 1},
		{"convex power", func(u float64) float64 { return (1 - math.Sqrt(u)) * 2 }, 2},
		{"constant base", func(u float64) float64 { return 0.5 }, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			est := Dyadic(tt.lb)
			if got := MeanOf(est); !numeric.EqualWithin(got, tt.value, 1e-3) {
				t.Errorf("E[dyadic] = %g, want %g", got, tt.value)
			}
			for _, u := range []float64{0.01, 0.1, 0.4, 0.9} {
				if est(u) < 0 {
					t.Errorf("dyadic(%g) negative", u)
				}
			}
		})
	}
}

func TestDyadicBoundedOnLipschitzLB(t *testing.T) {
	// lb with slope bounded by 1 ⇒ dyadic estimates bounded by 2 + base.
	est := Dyadic(func(u float64) float64 { return 1 - u })
	for _, u := range numeric.Linspace(0.001, 1, 200) {
		if e := est(u); e > 2+1e-6 {
			t.Errorf("dyadic(%g) = %g exceeds Lipschitz bound 2", u, e)
		}
	}
}

func TestDyadicCompetitiveOnConvexLB(t *testing.T) {
	// On a convex lower bound the dyadic baseline should be O(1)
	// competitive; we assert a loose factor (it is far worse than L*'s 4 in
	// general, matching the paper's remark about the J estimator's 84).
	lb := rg1pLB(0.6, 0)
	opt, err := OptimalSquare(lb, 0.6, Grid{Breaks: []float64{0.6}})
	if err != nil {
		t.Fatal(err)
	}
	sq := SquareOf(Dyadic(lb))
	if ratio := sq / opt; ratio > 90 {
		t.Errorf("dyadic ratio = %g, want O(1) (≤ 90)", ratio)
	}
}

func TestVOptimalHullExample3(t *testing.T) {
	// Example 3 (p=1): for v=(0.6,0.2) the v-optimal estimate is constant
	// 2/3 on (0, 0.6] (hull is the chord from (0, 0.4) to (0.6, 0)); for
	// v=(0.6,0) the lower bound equals its hull and the estimate is 1.
	vopt1, sq1, err := VOptimal(rg1pLB(0.6, 0.2), 0.4, Grid{Breaks: []float64{0.2, 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{0.1, 0.3, 0.55} {
		if got := vopt1(u); !numeric.EqualWithin(got, 2.0/3, 1e-3) {
			t.Errorf("vopt(0.6,0.2)(%g) = %g, want 2/3", u, got)
		}
	}
	if want := 4.0 / 15; !numeric.EqualWithin(sq1, want, 1e-3) {
		t.Errorf("optimal square = %g, want %g", sq1, want)
	}

	vopt2, sq2, err := VOptimal(rg1pLB(0.6, 0), 0.6, Grid{Breaks: []float64{0.6}})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{0.1, 0.3, 0.55} {
		if got := vopt2(u); !numeric.EqualWithin(got, 1, 1e-3) {
			t.Errorf("vopt(0.6,0)(%g) = %g, want 1", u, got)
		}
	}
	if !numeric.EqualWithin(sq2, 0.6, 1e-3) {
		t.Errorf("optimal square = %g, want 0.6", sq2)
	}
}

func TestVOptimalDiffersAcrossConsistentVectors(t *testing.T) {
	// Example 3's point: for u ∈ (0.2, 0.6] the outcomes of (0.6,0.2) and
	// (0.6,0) coincide but their v-optimal estimates differ (2/3 vs 1), so
	// no estimator minimizes variance on both simultaneously.
	voptA, _, _ := VOptimal(rg1pLB(0.6, 0.2), 0.4, Grid{Breaks: []float64{0.2, 0.6}})
	voptB, _, _ := VOptimal(rg1pLB(0.6, 0), 0.6, Grid{Breaks: []float64{0.6}})
	if a, b := voptA(0.4), voptB(0.4); math.Abs(a-b) < 0.1 {
		t.Errorf("v-optimal estimates should differ at u=0.4: %g vs %g", a, b)
	}
}

func TestCompetitiveRatioAtLStarUnderFour(t *testing.T) {
	// Theorem 4.1: the L* ratio is at most 4 for any instance.
	for _, v := range [][2]float64{{0.6, 0.2}, {0.6, 0}, {0.9, 0.85}, {1, 0}} {
		lb := rg1pLB(v[0], v[1])
		r, err := CompetitiveRatioAt(LStarSeed(lb), lb, v[0]-v[1], Grid{Breaks: []float64{v[1], v[0]}})
		if err != nil {
			t.Fatal(err)
		}
		if ratio := r.Value(); ratio > 4+1e-3 || ratio < 1-1e-3 {
			t.Errorf("v=%v: L* ratio = %g, want in [1, 4]", v, ratio)
		}
	}
}

func TestCheckEstimable(t *testing.T) {
	if err := CheckEstimable(rg1pLB(0.6, 0.2), 0.4); err != nil {
		t.Errorf("estimable instance flagged: %v", err)
	}
	// A lower bound stuck at 0 cannot support an unbiased nonnegative
	// estimator of a positive value (condition (9) fails).
	if err := CheckEstimable(func(u float64) float64 { return 0 }, 1); !errors.Is(err, ErrNotEstimable) {
		t.Errorf("want ErrNotEstimable, got %v", err)
	}
	if err := CheckEstimable(func(u float64) float64 { return 0 }, 0); err != nil {
		t.Errorf("zero value is always estimable: %v", err)
	}
}

func TestRatioValueEdgeCases(t *testing.T) {
	if got := (Ratio{Square: 0, OptSquare: 0}).Value(); got != 1 {
		t.Errorf("0/0 ratio = %g, want 1", got)
	}
	if got := (Ratio{Square: 1, OptSquare: 0}).Value(); !math.IsInf(got, 1) {
		t.Errorf("1/0 ratio = %g, want +Inf", got)
	}
	if got := (Ratio{Square: 2, OptSquare: 1}).Value(); got != 2 {
		t.Errorf("ratio = %g, want 2", got)
	}
}

// Dyadic returns the dyadic-delay baseline estimator: the cumulative
// estimate at seed ρ equals lb(2ρ) − lb(1), i.e. the estimator "pays out"
// the lower bound learned one octave ago, plus the constant lb(1) which is
// known with certainty (footnote 3 of the paper). Differentiating,
//
//	fˆ(ρ) = −2·lb'(2ρ) + lb(1)   (lb extended by lb(1) above u = 1).
//
// It is unbiased and nonnegative for any lower-bound function, bounded
// whenever lb has bounded one-sided derivatives, and O(1)-competitive on
// convex lower bounds. It stands in for the J estimator of [15]; see
// DESIGN.md §4.2. The derivative is taken numerically, so lb should be
// continuous (use the estimator only on continuous-domain problems).
func Dyadic(lb LowerBoundFunc) SeedFunc {
	base := lb(1)
	ext := func(x float64) float64 {
		if x >= 1 {
			return base
		}
		return lb(x)
	}
	return func(u float64) float64 {
		if u <= 0 || u > 1 {
			return 0
		}
		x := 2 * u
		h := math.Min(math.Max(1e-9, x*1e-7), x/2)
		// One-sided difference from the left keeps lb evaluations at
		// arguments ≥ x − h ≥ u for small h, preserving honesty up to the
		// numeric step; capping h at x/2 keeps arguments positive.
		d := (ext(x-h) - ext(x)) / h
		return math.Max(0, 2*d+base)
	}
}
