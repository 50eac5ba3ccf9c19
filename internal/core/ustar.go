package core

import (
	"math"

	"repro/internal/numeric"
)

// ConsistentFamily returns representative lower-bound functions f^(z) of
// data vectors z consistent with the outcome at seed rho (i.e. z ∈ S*).
//
// The U* estimator (Section 6) solves equation (48):
//
//	fˆ(U)(ρ) = sup_{z∈S*} inf_{0≤η<ρ} ( f^(z)(η) − M(ρ) ) / (ρ − η),
//
// with M(ρ) = ∫_ρ^1 fˆ(U). The inner infimum is the z-optimal estimate at ρ
// anchored at (ρ, M) — the negated slope of z's anchored lower hull — and
// the outer supremum ranges over consistent vectors. Note the order: the
// sup of infima is NOT the infimum of the upper envelope; they differ on
// outcomes consistent with vectors of smaller f whose lower-bound functions
// collapse before ρ (Example 4's u > v1 outcomes, where U* must be 0).
//
// Implementations should include (a) the f-minimal consistent vector, which
// pins the solution to the optimal range, and (b) the f-maximal vectors (or
// a parameter sweep approaching them), which realize the supremum under the
// paper's condition (49). Families are finite; for tuple functions a small
// per-unknown-entry parameter grid suffices.
type ConsistentFamily func(rho float64) []LowerBoundFunc

// UStarAt solves the U* equation over [rho, 1] only and returns the
// estimate at rho — the per-outcome evaluation path, where the mass M(ρ)
// accumulates over the chain of less-informative outcomes of the same
// sample.
func UStarAt(fam ConsistentFamily, rho float64, g Grid) float64 {
	if rho >= 1 {
		return uStarPoint(fam(1), 1, 0)
	}
	pts := g.sharedPoints()
	us := make([]float64, 0, len(pts)+1)
	us = append(us, rho)
	for _, u := range pts {
		if u > rho {
			us = append(us, u)
		}
	}
	ys := solveUStar(fam, us)
	return ys[0]
}

// solveUStar integrates the defining equation backward from us[len-1]
// (which should be 1) down to us[0], returning the estimate at each grid
// point. M(1) = 0.
//
// The accumulated mass is capped at the outcome lower bound (the minimum of
// the family members' lower bounds): constraint (7) requires
// M(x) ≤ f^(z)(x) for every consistent z, and on domains extending above
// the sampling threshold the raw equation (48) would overdraw (see
// funcs.RGPlus.UStarClosed). While the cap binds, the effective estimate is
// the boundary slope rather than the equation's value.
func solveUStar(fam ConsistentFamily, us []float64) []float64 {
	// point builds the family at u once and returns the equation's value
	// there with the mass clamped to the outcome lower bound, and that
	// bound, which the caller's constraint-(7) clamp reuses. While the
	// mass rides the bound (M(x) = lb(x), which the analytic solution does
	// on whole stretches, and which overdrawing instances are forced
	// onto), the sup-inf with the clamped mass automatically returns the
	// boundary derivative — λ(ρ, z, lb(ρ)) is the tangent slope of z's
	// lower bound at ρ.
	point := func(u, m float64) (y, limit float64) {
		lbs := fam(u)
		limit = math.Inf(1)
		for _, lbz := range lbs {
			if v := lbz(u); v < limit {
				limit = v
			}
		}
		if m > limit {
			m = limit
		}
		return uStarPoint(lbs, u, m), limit
	}
	n := len(us)
	ys := make([]float64, n)
	m := 0.0 // M(u) accumulated from 1 downward
	for i := n - 1; i >= 0; i-- {
		u := us[i]
		ys[i], _ = point(u, m)
		if i > 0 {
			// Accumulate the mass over [us[i-1], us[i]] in trapezoid
			// sub-steps: the estimator feeds back into its own defining
			// equation through M, so integration bias compounds and the
			// extra resolution pays for itself (λL amplifies M error by
			// 1/ρ at small seeds).
			const sub = 4
			h := (u - us[i-1]) / sub
			prev := ys[i]
			for k := 1; k <= sub; k++ {
				x := u - float64(k)*h
				next, limit := point(x, m)
				m += 0.5 * (prev + next) * h
				// Constraint (7): clamp to the outcome lower bound; the
				// analytic solution satisfies this, so the clamp only
				// removes integration drift or the equation's overdraw
				// above the sampling threshold.
				if m > limit {
					m = limit
				}
				prev = next
			}
		}
	}
	return ys
}

// uStarPoint computes sup_z inf_η (f^(z)(η) − M)/(ρ−η) over the family
// members lbs at rho, clamped to 0.
func uStarPoint(lbs []LowerBoundFunc, rho, m float64) float64 {
	best := 0.0
	for _, lbz := range lbs {
		if lam := lambdaOf(lbz, rho, m); lam > best {
			best = lam
		}
	}
	return best
}

// lambdaOf computes λ(ρ, z, M) = inf_{0≤η<ρ} (f^(z)(η) − M)/(ρ−η): the
// z-optimal estimate at ρ given mass M (equation (17)). Two numerical
// defenses keep it robust:
//
//   - M is clamped to f^(z)(ρ). Analytically M(ρ) ≤ f^(z)(ρ) for every
//     consistent z (constraint (7) applied to z), so the clamp only removes
//     integration drift — drift that would otherwise be amplified by
//     1/(ρ−η) near the anchor and make the backward solver chatter. For
//     members whose true λ is negative the clamp floors it at ~0, which is
//     harmless: U* and λU take a maximum with 0 anyway.
//   - The infimum is often attained in a narrow window just below ρ (where
//     f^(z) collapses for vectors barely consistent with the outcome), so a
//     geometric approach to ρ down to an absolute gap of ~1e-12 is scanned
//     in addition to a golden-section search over the interior. Family
//     discontinuities within ~1e-11 of ρ are below that resolution;
//     implementations should keep parameter sweeps away from the sliver
//     (the sup is continuous in the parameters, so nothing is lost).
func lambdaOf(lbz LowerBoundFunc, rho, m float64) float64 {
	atRho := lbz(rho)
	if m > atRho {
		m = atRho
	}
	obj := func(eta float64) float64 {
		return (lbz(eta) - m) / (rho - eta)
	}
	// Chord gaps below ~1e-12 drown in the cancellation noise of the
	// numerator (lbz values are O(1), so their difference carries ~1e-16 of
	// ulp error); stop the approach there.
	minGap := math.Max(rho*1e-14, 1e-12)
	best := obj(0)
	for gap := rho / 2; gap >= minGap; gap /= 2 {
		if v := obj(rho - gap); v < best {
			best = v
		}
	}
	if hi := rho - math.Max(rho*1e-9, minGap); hi > 0 {
		if _, fx := numeric.MinimizeGolden(obj, 0, hi, rho*1e-10); fx < best {
			best = fx
		}
	}
	return best
}
