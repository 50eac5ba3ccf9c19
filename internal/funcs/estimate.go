package funcs

import (
	"repro/internal/core"
	"repro/internal/sampling"
)

// EstimateLStar returns the L* estimate of f on a concrete outcome,
// dispatching to the function's closed form when available and otherwise
// integrating the outcome-derived lower-bound function (formula (31)).
func EstimateLStar(f F, o sampling.TupleOutcome) float64 {
	if cf, ok := f.(LStarClosedForm); ok {
		if est, ok := cf.LStarClosed(o); ok {
			return est
		}
	}
	return core.LStarAt(OutcomeLB(f, o), o.Rho)
}

// EstimateUStar returns the U* estimate of f on a concrete outcome,
// dispatching to the closed form when available and otherwise running the
// backward solver over [Rho, 1] with the outcome-derived family.
func EstimateUStar(f F, o sampling.TupleOutcome, g core.Grid) float64 {
	if cf, ok := f.(UStarClosedForm); ok {
		if est, ok := cf.UStarClosed(o); ok {
			return est
		}
	}
	return core.UStarAt(OutcomeFamily(f, o), o.Rho, g)
}

// EstimateHT returns the Horvitz–Thompson estimate on a concrete outcome:
// f(v)/p when the outcome reveals f(v) (p being the revelation
// probability, recovered from the outcome by bisection), 0 otherwise.
func EstimateHT(f F, o sampling.TupleOutcome) float64 {
	if value := f.Lower(o); value != 0 && revealed(value, f.Upper(o)) {
		return value / revealSeed(f, o)
	}
	return 0
}

// EstimateVOptimal returns the v-optimal oracle estimate for the true data
// vector v — not a legal estimator (it peeks at v), but the per-data
// variance benchmark that defines competitiveness (Theorem 2.1).
func EstimateVOptimal(f F, s sampling.TupleScheme, v []float64, rho float64, g core.Grid) (float64, error) {
	est, _, err := core.VOptimal(DataLB(f, s, v), f.Value(v), g)
	if err != nil {
		return 0, err
	}
	return est(rho), nil
}
