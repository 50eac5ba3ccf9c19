package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hull"
	"repro/internal/numeric"
)

// rg1pLB returns the lower-bound function for RG1+(v1,v2)=max(0,v1-v2)
// under coordinated PPS with τ* = 1 (Example 3 of the paper):
// f^(v)(u) = max(0, v1·1[v1≥u] − max(v2, u)).
func rg1pLB(v1, v2 float64) LowerBoundFunc {
	return func(u float64) float64 {
		known := v1
		if v1 < u {
			known = 0
		}
		return math.Max(0, known-math.Max(v2, u))
	}
}

// rg1pLStarClosed is the paper's closed-form L* estimate for RG1+ under PPS
// τ*=1 (Example 4, specialized to p=1): ln(v1/max(v2,u)) for u ≤ v1.
func rg1pLStarClosed(v1, v2, u float64) float64 {
	if u > v1 {
		return 0
	}
	return math.Log(v1 / math.Max(v2, u))
}

func TestLStarMatchesClosedFormRG1Plus(t *testing.T) {
	tests := []struct {
		name   string
		v1, v2 float64
	}{
		{"both positive", 0.6, 0.2},
		{"zero second entry", 0.6, 0},
		{"near equal", 0.5, 0.45},
		{"full range", 1.0, 0.1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			lb := rg1pLB(tt.v1, tt.v2)
			for _, u := range []float64{0.01, 0.05, 0.15, 0.25, 0.5, 0.61, 0.8, 1} {
				got := LStarAt(lb, u)
				want := rg1pLStarClosed(tt.v1, tt.v2, u)
				if !numeric.EqualWithin(got, want, 1e-6) {
					t.Errorf("LStarAt(u=%g) = %g, want %g", u, got, want)
				}
			}
		})
	}
}

func TestLStarUnbiasedRG1Plus(t *testing.T) {
	tests := []struct {
		v1, v2 float64
	}{
		{0.6, 0.2}, {0.6, 0}, {0.9, 0.5}, {0.3, 0.29}, {1, 0},
	}
	for _, tt := range tests {
		lb := rg1pLB(tt.v1, tt.v2)
		got := MeanOf(LStarSeed(lb))
		want := tt.v1 - tt.v2
		if !numeric.EqualWithin(got, want, 1e-4) {
			t.Errorf("v=(%g,%g): E[L*] = %g, want %g", tt.v1, tt.v2, got, want)
		}
	}
}

func TestLStarMonotoneInSeed(t *testing.T) {
	// Theorem 4.2: fixing the data, the L* estimate is non-increasing in u.
	lb := rg1pLB(0.6, 0.2)
	prev := math.Inf(1)
	for _, u := range numeric.Geomspace(1e-4, 1, 60) {
		e := LStarAt(lb, u)
		if e > prev+1e-9 {
			t.Fatalf("L* increased with u at %g: %g > %g", u, e, prev)
		}
		prev = e
	}
}

func TestLStarNonnegativeAndZeroOnZeroConsistentOutcomes(t *testing.T) {
	lb := rg1pLB(0.6, 0.2)
	for _, u := range []float64{0.61, 0.7, 0.9, 1} {
		if e := LStarAt(lb, u); e != 0 {
			t.Errorf("L*(%g) = %g, want 0 (outcome consistent with f=0)", u, e)
		}
	}
	for _, u := range []float64{0.001, 0.1, 0.3, 0.59} {
		if e := LStarAt(lb, u); e < 0 {
			t.Errorf("L*(%g) = %g, negative", u, e)
		}
	}
}

func TestLStarCurveAgreesWithPointEvaluation(t *testing.T) {
	lb := rg1pLB(0.6, 0.2)
	curve := LStarCurve(lb, Grid{Breaks: []float64{0.2, 0.6}})
	for _, u := range []float64{0.01, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 1} {
		if got, want := curve(u), LStarAt(lb, u); !numeric.EqualWithin(got, want, 1e-4) {
			t.Errorf("curve(%g) = %g, want %g", u, got, want)
		}
	}
}

func TestLStarSquareClosedForm(t *testing.T) {
	// For v = (0.6, 0.2): E[(L*)²] = 0.8 − 0.4·ln3 (derived by hand from
	// the closed form ln(v1/max(v2,u))).
	lb := rg1pLB(0.6, 0.2)
	want := 0.8 - 0.4*math.Log(3)
	got := SquareOf(LStarSeed(lb))
	if !numeric.EqualWithin(got, want, 1e-4) {
		t.Errorf("E[(L*)²] = %g, want %g", got, want)
	}
}

func TestLStarCumulativeIdentity(t *testing.T) {
	// (30): ρ·fˆ(ρ) + M(ρ) = f^(v)(ρ).
	lb := rg1pLB(0.6, 0.2)
	for _, rho := range []float64{0.1, 0.2, 0.35, 0.6, 0.9} {
		m := LStarCumulative(lb, rho)
		direct := numeric.Integrate(func(u float64) float64 { return LStarAt(lb, u) }, rho, 1)
		if !numeric.EqualWithin(m, direct, 1e-4) {
			t.Errorf("rho=%g: closed-form M = %g, quadrature M = %g", rho, m, direct)
		}
	}
}

func TestLStarStepAgainstGenericFormula(t *testing.T) {
	steps := []Step{{At: 0.5, Delta: 1}, {At: 0.25, Delta: 0.5}, {At: 0.1, Delta: 2}}
	lb := StepLB(0.2, steps)
	for _, rho := range []float64{0.05, 0.1, 0.2, 0.3, 0.6, 1} {
		exact := LStarStep(0.2, steps, rho)
		quad := LStarAt(lb, rho)
		if !numeric.EqualWithin(exact, quad, 1e-5) {
			t.Errorf("rho=%g: LStarStep = %g, LStarAt = %g", rho, exact, quad)
		}
	}
	// Unbiasedness of the exact step form: Σ over jumps of Δ·(b/b) + base.
	est := func(u float64) float64 { return LStarStep(0.2, steps, u) }
	if got, want := MeanOf(est), 0.2+1+0.5+2; !numeric.EqualWithin(got, want, 1e-6) {
		t.Errorf("E[step L*] = %g, want %g", got, want)
	}
}

func TestLStarBaseValueHandledWithoutStepAtOne(t *testing.T) {
	// lb(1) > 0 (footnote 3 of the paper): formula (31) handles the base
	// value without special-casing. lb ≡ c gives fˆ ≡ c.
	lb := func(u float64) float64 { return 0.7 }
	for _, u := range []float64{0.1, 0.5, 1} {
		if got := LStarAt(lb, u); !numeric.EqualWithin(got, 0.7, 1e-8) {
			t.Errorf("constant lb: L*(%g) = %g, want 0.7", u, got)
		}
	}
}

func TestLStarTightnessFamilyClosedForm(t *testing.T) {
	// Theorem 4.1 family: f(v) = (1−v^{1−p})/(1−p), PPS τ(u)=u, data v=0.
	// lb(u) = (1−u^{1−p})/(1−p); closed form L*(x) = (1/p)(x^{−p} − 1).
	for _, p := range []float64{0.1, 0.25, 0.4, 0.45} {
		lb := func(u float64) float64 { return (1 - math.Pow(u, 1-p)) / (1 - p) }
		for _, x := range []float64{0.01, 0.1, 0.5, 0.9} {
			got := LStarAt(lb, x)
			want := (math.Pow(x, -p) - 1) / p
			if !numeric.EqualWithin(got, want, 1e-5) {
				t.Errorf("p=%g x=%g: L* = %g, want %g", p, x, got, want)
			}
		}
	}
}

func TestLStarCompetitiveRatioTightnessFamily(t *testing.T) {
	// Ratio should equal 2/(1−p) exactly for this family and approach 4.
	for _, p := range []float64{0.1, 0.25, 0.4, 0.45} {
		lstar := func(x float64) float64 {
			if x <= 0 || x > 1 {
				return 0
			}
			return (math.Pow(x, -p) - 1) / p
		}
		vopt := func(x float64) float64 {
			if x <= 0 || x > 1 {
				return 0
			}
			return math.Pow(x, -p)
		}
		ratio := SquareOf(lstar) / SquareOf(vopt)
		want := 2 / (1 - p)
		if !numeric.EqualWithin(ratio, want, 1e-3) {
			t.Errorf("p=%g: ratio = %g, want %g", p, ratio, want)
		}
		if ratio > 4+1e-6 {
			t.Errorf("p=%g: ratio %g exceeds 4", p, ratio)
		}
	}
}

func TestLStarAtPanicsOutsideDomain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for seed outside (0,1]")
		}
	}()
	LStarAt(func(u float64) float64 { return 0 }, 0)
}

// LStarCurve tabulates the L* estimator on the grid and returns it as a
// piecewise-linear SeedFunc for cheap repeated evaluation (variance and
// ratio integrals). The cumulative integral ∫_u^1 lb(x)/x² dx is accumulated
// segment-by-segment to avoid re-integration per point.
func LStarCurve(lb LowerBoundFunc, g Grid) SeedFunc {
	us := g.Points()
	n := len(us)
	ys := make([]float64, n)
	// tail[i] = ∫_{us[i]}^1 lb/x²; accumulate from the right.
	tail := 0.0
	for i := n - 1; i >= 0; i-- {
		if i < n-1 {
			seg, _ := numeric.IntegrateOpt(func(x float64) float64 { return lb(x) / (x * x) },
				us[i], us[i+1], numeric.QuadOptions{AbsTol: 1e-12, RelTol: 1e-10, MaxDepth: 24})
			tail += seg
		}
		ys[i] = math.Max(0, lb(us[i])/us[i]-tail)
	}
	pl, err := hull.FromBreakpoints(us, ys)
	if err != nil {
		// Grid points are strictly increasing by construction.
		panic(fmt.Sprintf("core: internal grid error: %v", err))
	}
	eps := us[0]
	return func(u float64) float64 {
		switch {
		case u <= 0 || u > 1:
			return 0
		case u < eps:
			// Extrapolate with the exact formula below the grid: rare path.
			return LStarAt(lb, u)
		default:
			return math.Max(0, pl.Eval(u))
		}
	}
}

// LStarCumulative returns M(ρ) = ∫_ρ^1 fˆ(L)(x) dx in closed form. By the
// defining equation (30), ρ·fˆ(L)(ρ) + M(ρ) = f^(v)(ρ), so
// M(ρ) = f^(v)(ρ) − ρ·fˆ(L)(ρ). Useful for in-range checks.
func LStarCumulative(lb LowerBoundFunc, rho float64) float64 {
	return lb(rho) - rho*LStarAt(lb, rho)
}
