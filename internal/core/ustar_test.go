package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hull"
	"repro/internal/numeric"
)

// uStarCurve solves the U* integral equation by backward integration from
// u = 1 on the grid, returning the estimator as a SeedFunc. Nonnegativity
// is enforced (the analytic solution is nonnegative whenever the family
// contains the f-minimal vector; clamping removes discretization noise).
// The curve tests read the whole solution; serving evaluates one seed
// through UStarAt.
func uStarCurve(fam ConsistentFamily, g Grid) SeedFunc {
	us := g.Points()
	ys := solveUStar(fam, us)
	pl, err := hull.FromBreakpoints(us, ys)
	if err != nil {
		panic(fmt.Sprintf("core: internal grid error: %v", err))
	}
	eps := us[0]
	firstY := ys[0]
	return func(u float64) float64 {
		switch {
		case u <= 0 || u > 1:
			return 0
		case u < eps:
			// U* is bounded under the paper's conditions; hold the last value.
			return firstY
		default:
			return math.Max(0, pl.Eval(u))
		}
	}
}

// lambdaL returns the lower end of the optimal range at an outcome with
// seed rho, given the mass M committed on less-informative outcomes
// (equation (19)): λL = (f^(v)(ρ) − M)/ρ.
func lambdaL(lb LowerBoundFunc, rho, m float64) float64 {
	return (lb(rho) - m) / rho
}

// lambdaU returns the upper end of the optimal range at an outcome with
// seed rho (equation (18)): sup over consistent vectors of their optimal
// estimates given M.
func lambdaU(fam ConsistentFamily, rho, m float64) float64 {
	best := math.Inf(-1)
	for _, lbz := range fam(rho) {
		if lam := lambdaOf(lbz, rho, m); lam > best {
			best = lam
		}
	}
	return best
}

// inRangeReport holds the worst violations found by checkInRange.
type inRangeReport struct {
	// MaxBelow is the largest amount by which the estimate fell below λL.
	MaxBelow float64
	// MaxAbove is the largest amount by which the estimate exceeded λU.
	MaxAbove float64
}

// OK reports whether the estimator stayed within the optimal range up to
// tolerance tol.
func (r inRangeReport) OK(tol float64) bool {
	return r.MaxBelow <= tol && r.MaxAbove <= tol
}

// checkInRange samples seeds and verifies the in-range condition (20):
// λL(S) ≤ f̂(S) ≤ λU(S), which Section 3 proves necessary for admissibility
// and sufficient for unbiasedness+nonnegativity. M(ρ) is computed from the
// estimator itself by quadrature.
func checkInRange(est SeedFunc, lb LowerBoundFunc, fam ConsistentFamily, seeds []float64) inRangeReport {
	var rep inRangeReport
	for _, rho := range seeds {
		if rho <= 0 || rho > 1 {
			continue
		}
		m := numeric.Integrate(numeric.Func1(est), rho, 1)
		lo := lambdaL(lb, rho, m)
		hi := lambdaU(fam, rho, m)
		e := est(rho)
		if d := lo - e; d > rep.MaxBelow {
			rep.MaxBelow = d
		}
		if d := e - hi; d > rep.MaxAbove {
			rep.MaxAbove = d
		}
	}
	return rep
}

// rg1pFamily hand-rolls the ConsistentFamily for RG1+ under coordinated PPS
// with τ*=1 and data vector (v1, v2), v1 ≥ v2. Consistent vectors at seed ρ:
//   - ρ ≤ v2: both entries known, z = v.
//   - v2 < ρ ≤ v1: z = (v1, z2) with z2 ∈ [0, ρ).
//   - ρ > v1: z = (z1, z2) with z1, z2 ∈ [0, ρ).
//
// The family sweeps the unknown entries over a small grid including the
// f-extremal assignments (z2 = 0 maximizes f; z1 small minimizes it).
func rg1pFamily(v1, v2 float64) ConsistentFamily {
	const sweep = 9
	return func(rho float64) []LowerBoundFunc {
		var fams []LowerBoundFunc
		add := func(z1, z2 float64) {
			fams = append(fams, rg1pLB(z1, z2))
		}
		switch {
		case rho <= v2:
			add(v1, v2)
		case rho <= v1:
			for i := 0; i < sweep; i++ {
				add(v1, rho*float64(i)/sweep)
			}
		default:
			// z1 sweeps toward ρ but stays clear of the 2^-48 sliver the
			// inner minimizer cannot resolve; λ is continuous in z1 here.
			for i := 0; i <= sweep; i++ {
				add(rho*(1-1e-9)*float64(i)/sweep, 0)
			}
		}
		return fams
	}
}

func TestUStarMatchesClosedFormRG1Plus(t *testing.T) {
	// Example 4 (p=1 ≥ 1): U* = p·(v1−u)^{p−1} = 1 on (v2, v1], and 0 for
	// u ≤ v2 < v1 as well as u > v1.
	tests := []struct {
		name   string
		v1, v2 float64
	}{
		{"v2 positive", 0.6, 0.2},
		{"v2 zero", 0.6, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fam := rg1pFamily(tt.v1, tt.v2)
			ustar := uStarCurve(fam, Grid{N: 800, Breaks: []float64{tt.v2, tt.v1}})
			for _, u := range []float64{0.65, 0.8, 1} {
				if got := ustar(u); math.Abs(got) > 2e-2 {
					t.Errorf("U*(%g) = %g, want 0", u, got)
				}
			}
			for _, u := range []float64{tt.v2 + 0.05, 0.4, 0.55} {
				if got := ustar(u); math.Abs(got-1) > 5e-2 {
					t.Errorf("U*(%g) = %g, want 1", u, got)
				}
			}
			if tt.v2 > 0 {
				for _, u := range []float64{0.05, 0.15} {
					if got := ustar(u); math.Abs(got) > 5e-2 {
						t.Errorf("U*(%g) = %g, want 0 (u ≤ v2)", u, got)
					}
				}
			}
		})
	}
}

func TestUStarUnbiasedRG1Plus(t *testing.T) {
	tests := []struct {
		v1, v2 float64
	}{
		{0.6, 0.2}, {0.6, 0}, {0.9, 0.5},
	}
	for _, tt := range tests {
		fam := rg1pFamily(tt.v1, tt.v2)
		ustar := uStarCurve(fam, Grid{N: 1200, Breaks: []float64{tt.v2, tt.v1}})
		got := numeric.Integrate(numeric.Func1(ustar), 1e-7, 1)
		want := tt.v1 - tt.v2
		if math.Abs(got-want) > 2e-2 {
			t.Errorf("v=(%g,%g): E[U*] = %g, want %g", tt.v1, tt.v2, got, want)
		}
	}
}

func TestUStarIsVOptimalOnZeroSecondEntry(t *testing.T) {
	// Example 4: when v2 = 0, the U* estimates are v-optimal. For p=1 the
	// v-optimal estimator for (v1, 0) is constant 1 on (0, v1].
	v1 := 0.6
	fam := rg1pFamily(v1, 0)
	ustar := uStarCurve(fam, Grid{N: 800, Breaks: []float64{v1}})
	vopt, optSq, err := VOptimal(rg1pLB(v1, 0), v1, Grid{Breaks: []float64{v1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{0.05, 0.2, 0.4, 0.55} {
		if got, want := ustar(u), vopt(u); math.Abs(got-want) > 5e-2 {
			t.Errorf("U*(%g) = %g, v-optimal = %g", u, got, want)
		}
	}
	if got := SquareOf(ustar); math.Abs(got-optSq) > 3e-2 {
		t.Errorf("E[(U*)²] = %g, optimal = %g", got, optSq)
	}
}

func TestLambdaLAndRangeOrdering(t *testing.T) {
	// λL ≤ λU at every outcome, with M from the L* estimator.
	lb := rg1pLB(0.6, 0.2)
	fam := rg1pFamily(0.6, 0.2)
	for _, rho := range []float64{0.05, 0.15, 0.3, 0.5, 0.7} {
		m := LStarCumulative(lb, rho)
		lo := lambdaL(lb, rho, m)
		hi := lambdaU(fam, rho, m)
		if lo > hi+1e-6 {
			t.Errorf("rho=%g: λL=%g > λU=%g", rho, lo, hi)
		}
	}
}

func TestLStarIsInRange(t *testing.T) {
	// Section 3: L* solves (21a) with equality, so it must lie in the
	// optimal range everywhere.
	lb := rg1pLB(0.6, 0.2)
	fam := rg1pFamily(0.6, 0.2)
	est := LStarSeed(lb)
	rep := checkInRange(est, lb, fam, []float64{0.05, 0.15, 0.3, 0.45, 0.55, 0.7, 0.9})
	if !rep.OK(1e-4) {
		t.Errorf("L* out of optimal range: %+v", rep)
	}
}

func TestUStarIsInRange(t *testing.T) {
	// Seeds stay ≥ 0.25: λL = (lb−M)/ρ amplifies the solver's O(Δu²) mass
	// error by 1/ρ, so tiny seeds test the discretization, not the math.
	fam := rg1pFamily(0.6, 0.2)
	lb := rg1pLB(0.6, 0.2)
	ustar := uStarCurve(fam, Grid{N: 1200, Breaks: []float64{0.2, 0.6}})
	rep := checkInRange(ustar, lb, fam, []float64{0.25, 0.3, 0.45, 0.55, 0.7})
	if !rep.OK(5e-2) {
		t.Errorf("U* out of optimal range: %+v", rep)
	}
}
