package funcs

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sampling"
)

// F is a nonnegative item function together with the outcome-level
// machinery the estimators consume. Implementations must derive Lower,
// Upper and Family from the outcome alone (never from hidden data), which
// keeps every estimator built on them honest.
type F interface {
	// Name identifies the function in reports (e.g. "RG1+").
	Name() string
	// Arity returns the required tuple length, or 0 for any length ≥ 1.
	Arity() int
	// Value evaluates f on a full data vector.
	Value(v []float64) float64
	// Lower returns inf f over data vectors consistent with the outcome —
	// the lower-bound value f^(v)(ρ) at the outcome's own seed. It must
	// not retain the outcome's slices (OutcomeLB reuses them).
	Lower(o sampling.TupleOutcome) float64
	// Upper returns sup f over data vectors consistent with the outcome
	// (the supremum may be approached, not attained). Upper == Lower means
	// the outcome reveals f exactly.
	Upper(o sampling.TupleOutcome) float64
	// Family returns representative data vectors consistent with the
	// outcome, spanning the spread of lower-bound functions over S*; it
	// must include a vector attaining Lower and vectors approaching Upper.
	// Used by the U* solver and the λU range bound.
	Family(o sampling.TupleOutcome) [][]float64
}

// LStarClosedForm is implemented by functions with an exact L* expression
// (Example 4 of the paper); Estimate dispatches to it when available.
type LStarClosedForm interface {
	LStarClosed(o sampling.TupleOutcome) (float64, bool)
}

// UStarClosedForm is implemented by functions with an exact U* expression.
type UStarClosedForm interface {
	UStarClosed(o sampling.TupleOutcome) (float64, bool)
}

// OutcomeLB adapts a concrete outcome to the core.LowerBoundFunc the
// estimators integrate: u ↦ f^(v)(u), derived from the outcome alone by
// coarsening — the information at seed u ≥ o.Rho is exactly o.At(u).
// (Arguments below o.Rho are clamped to o.Rho; estimators never use them.)
// The coarsened outcome lives in one scratch pair owned by the returned
// function, so an evaluation allocates nothing; the function is therefore
// not safe for concurrent use (each estimate builds its own).
func OutcomeLB(f F, o sampling.TupleOutcome) core.LowerBoundFunc {
	known := make([]bool, len(o.Known))
	vals := make([]float64, len(o.Known))
	return func(u float64) float64 {
		if u < o.Rho {
			u = o.Rho
		}
		if u >= 1 {
			u = 1
		}
		return f.Lower(o.AtInto(u, known, vals))
	}
}

// DataLB returns the full lower-bound function of data vector v under
// scheme s — the evaluation-side view used to study estimator distributions
// (variance, competitiveness) rather than to estimate.
func DataLB(f F, s sampling.TupleScheme, v []float64) core.LowerBoundFunc {
	checkArity(f, len(v))
	return func(u float64) float64 {
		if u <= 0 {
			return f.Value(v)
		}
		if u > 1 {
			u = 1
		}
		return f.Lower(s.Sample(v, u))
	}
}

// OutcomeFamily returns the core.ConsistentFamily of a concrete outcome:
// the family at seed u ≥ o.Rho is derived from o.At(u), converting the
// function's representative vectors into their lower-bound functions.
// Used by the per-outcome U* estimate.
func OutcomeFamily(f F, o sampling.TupleOutcome) core.ConsistentFamily {
	return func(rho float64) []core.LowerBoundFunc {
		if rho < o.Rho {
			rho = o.Rho
		}
		co := o.At(rho)
		reps := f.Family(co)
		lbs := make([]core.LowerBoundFunc, 0, len(reps))
		for _, z := range reps {
			lbs = append(lbs, DataLB(f, co.Scheme, z))
		}
		return lbs
	}
}

// Revealed reports whether the outcome determines f exactly.
func Revealed(f F, o sampling.TupleOutcome) bool {
	lo, hi := f.Lower(o), f.Upper(o)
	return hi-lo <= 1e-12*(1+math.Abs(hi))
}

// RevealSeed returns the supremum seed at which the outcome (or a coarser
// version of it) still reveals f — the Horvitz–Thompson inclusion
// probability. It returns 0 when the outcome does not reveal f at all.
// Revelation is monotone (coarser outcomes reveal no more), so bisection
// applies; the result is honest because only o.At(u) is consulted.
func RevealSeed(f F, o sampling.TupleOutcome) float64 {
	if !Revealed(f, o) {
		return 0
	}
	if Revealed(f, o.At(1)) {
		return 1
	}
	lo, hi := o.Rho, 1.0 // revealed at lo, not at hi
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if Revealed(f, o.At(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func checkArity(f F, n int) {
	if a := f.Arity(); a != 0 && a != n {
		panic(fmt.Sprintf("funcs: %s expects %d entries, got %d", f.Name(), a, n))
	}
}
