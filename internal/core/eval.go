package core

import (
	"math"

	"repro/internal/numeric"
)

// MeanOf computes E[f̂|v] = ∫_0^1 est(u) du by quadrature. For an unbiased
// estimator this equals f(v).
func MeanOf(est SeedFunc) float64 {
	v, _ := numeric.IntegrateToZero(numeric.Func1(est), 1, numeric.QuadOptions{AbsTol: 1e-11})
	return v
}

// SquareOf computes E[f̂²|v] = ∫_0^1 est(u)² du by quadrature, tolerating
// integrable blow-ups near u = 0 (the L* estimator is unbounded on some
// inputs yet has finite variance).
func SquareOf(est SeedFunc) float64 {
	v, _ := numeric.IntegrateToZero(func(u float64) float64 {
		e := est(u)
		return e * e
	}, 1, numeric.QuadOptions{AbsTol: 1e-11})
	return v
}

// Ratio holds a competitive-ratio measurement for one data vector.
type Ratio struct {
	// Square is E[f̂²] of the measured estimator.
	Square float64
	// OptSquare is the v-optimal minimum of E[f̂²].
	OptSquare float64
}

// Value returns Square/OptSquare, the per-data competitive ratio. It is
// +Inf when the optimum is 0 but the estimator's square is positive, and 1
// when both vanish.
func (r Ratio) Value() float64 {
	if r.OptSquare <= 0 {
		if r.Square <= 1e-12 {
			return 1
		}
		return math.Inf(1)
	}
	return r.Square / r.OptSquare
}

// CompetitiveRatioAt measures the ratio of the estimator's E[f̂²] to the
// v-optimal minimum for the data vector whose lower-bound function is lb
// and whose true value is value.
func CompetitiveRatioAt(est SeedFunc, lb LowerBoundFunc, value float64, g Grid) (Ratio, error) {
	opt, err := OptimalSquare(lb, value, g)
	if err != nil {
		return Ratio{}, err
	}
	return Ratio{Square: SquareOf(est), OptSquare: opt}, nil
}
