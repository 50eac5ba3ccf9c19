package funcs

import (
	"fmt"
	"math"
	"sync"

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

// seedLower is implemented by the served range functions. lowerAtSeed
// returns f.Lower(s.Sample(v, u)) for s = {Tau: tau} and u in (0, 1], bit
// for bit, without building the outcome: the U* solver evaluates every
// family member's DataLB tens of thousands of times per estimate.
type seedLower interface {
	lowerAtSeed(tau, v []float64, u float64) float64
}

// DataLB returns the full lower-bound function of data vector v under
// scheme s — the evaluation-side view used to study estimator distributions
// (variance, competitiveness) rather than to estimate, and the lower-bound
// function of each consistent vector the U* solver sweeps. Functions
// without a seedLower kernel coarsen through SampleInto into one scratch
// pair owned by the returned function, so an evaluation allocates nothing
// either way, but such a function is not safe for concurrent use.
func DataLB(f F, s sampling.TupleScheme, v []float64) core.LowerBoundFunc {
	checkArity(f, len(v))
	if len(v) != s.R() {
		panic(fmt.Sprintf("funcs: tuple arity %d != scheme arity %d", len(v), s.R()))
	}
	if k, ok := f.(seedLower); ok {
		return func(u float64) float64 {
			if u <= 0 {
				return f.Value(v)
			}
			return k.lowerAtSeed(s.Tau, v, min(u, 1))
		}
	}
	known, vals := make([]bool, len(v)), make([]float64, len(v))
	return func(u float64) float64 {
		if u <= 0 {
			return f.Value(v)
		}
		return f.Lower(s.SampleInto(v, min(u, 1), known, vals))
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
func Revealed(f F, o sampling.TupleOutcome) bool { return revealed(f.Lower(o), f.Upper(o)) }

// revealed is Revealed's test on bounds already evaluated.
func revealed(lo, hi float64) bool { return hi-lo <= 1e-12*(1+math.Abs(hi)) }

// revealScratch lends RevealSeed the Known/Vals backing of its coarsened
// outcomes. They reach f.Lower and f.Upper through the interface, so a
// pair declared on the stack would move to the heap on every call;
// pooled, the per-item HT path allocates nothing.
var revealScratch = sync.Pool{New: func() any { return new(sampling.TupleOutcome) }}

// RevealSeed returns the supremum seed at which the outcome (or a coarser
// version of it) still reveals f — the Horvitz–Thompson inclusion
// probability. It returns 0 when the outcome does not reveal f at all.
// Revelation is monotone (coarser outcomes reveal no more), so bisection
// applies; the result is honest because only o.At(u) is consulted. Every
// step coarsens into the same scratch pair.
func RevealSeed(f F, o sampling.TupleOutcome) float64 {
	if !Revealed(f, o) {
		return 0
	}
	return revealSeed(f, o)
}

// revealSeed is RevealSeed's bisection on an outcome that reveals f.
func revealSeed(f F, o sampling.TupleOutcome) float64 {
	sc := revealScratch.Get().(*sampling.TupleOutcome)
	defer revealScratch.Put(sc)
	n := len(o.Known)
	if cap(sc.Known) < n {
		sc.Known, sc.Vals = make([]bool, n), make([]float64, n)
	}
	known, vals := sc.Known[:n], sc.Vals[:n]
	if Revealed(f, o.AtInto(1, known, vals)) {
		return 1
	}
	lo, hi := o.Rho, 1.0 // revealed at lo, not at hi
	for i := 0; i < 60; i++ {
		if mid := 0.5 * (lo + hi); Revealed(f, o.AtInto(mid, known, vals)) {
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
