package core

import (
	"fmt"
	"math"

	"repro/internal/numeric"
)

// LStarAt evaluates the L* estimator on the outcome with seed rho, given the
// lower-bound function of the data vector (formula (31) of the paper):
//
//	fˆ(L)(ρ) = f^(v)(ρ)/ρ − ∫_ρ^1 f^(v)(x)/x² dx.
//
// Only lb values at arguments ≥ rho are consulted, which is exactly the
// information the outcome provides. The result is computed with adaptive
// quadrature; use funcs' closed forms when exactness matters.
func LStarAt(lb LowerBoundFunc, rho float64) float64 {
	if rho <= 0 || rho > 1 {
		panic(fmt.Sprintf("core: LStarAt seed %g outside (0,1]", rho))
	}
	head := lb(rho) / rho
	if head == 0 {
		// lb is nonnegative and non-increasing, so lb ≡ 0 on [rho, 1].
		return 0
	}
	tail := numeric.Integrate(func(x float64) float64 { return lb(x) / (x * x) }, rho, 1)
	// Nonnegativity holds analytically (Section 4); clamp quadrature noise.
	return math.Max(0, head-tail)
}

// LStarStep evaluates L* exactly for a step-shaped lower-bound function:
// each jump of height Δ at position b ≥ ρ contributes Δ/b, and the base
// value lb(1) contributes itself (footnote 3 of the paper):
//
//	fˆ(L)(ρ) = base + Σ_{b_j ≥ ρ} Δ_j / b_j.
//
// This is the workhorse for discrete schemes (HIP-threshold sampling in the
// similarity application, discrete domains in the order package).
func LStarStep(base float64, steps []Step, rho float64) float64 {
	est := base
	for _, s := range steps {
		if s.At >= rho {
			est += s.Delta / s.At
		}
	}
	return est
}

// LStarSeed returns the L* estimator as an exact SeedFunc: each evaluation
// performs one adaptive quadrature, so it stays exact inside variance and
// ratio integrals that probe u → 0.
func LStarSeed(lb LowerBoundFunc) SeedFunc {
	return func(u float64) float64 {
		if u <= 0 || u > 1 {
			return 0
		}
		return LStarAt(lb, u)
	}
}
