package core

import (
	"errors"
	"math"
)

// ErrHTInapplicable reports that the Horvitz–Thompson estimator does not
// exist for the data vector: the probability of an outcome revealing f(v)
// is zero (for example v = (0.5, 0) when estimating the range under
// coordinated PPS — the paper's Section 1 example).
var ErrHTInapplicable = errors.New("core: Horvitz-Thompson inapplicable (zero revelation probability)")

// HT returns the Horvitz–Thompson estimator as a SeedFunc for a problem
// where the outcome at seed u reveals f(v) exactly iff u ≤ reveal: the
// estimate is f(v)/reveal on revealing outcomes and 0 otherwise.
//
// HT is unbiased, nonnegative, and monotone, but it discards partial
// information; Theorem 4.2 implies it is dominated by L*.
func HT(value, reveal float64) (SeedFunc, error) {
	if reveal <= 0 {
		if value == 0 {
			// f(v)=0 forces the all-zero estimator, which is fine.
			return func(float64) float64 { return 0 }, nil
		}
		return nil, ErrHTInapplicable
	}
	inv := value / reveal
	return func(u float64) float64 {
		if u > 0 && u <= reveal {
			return inv
		}
		return 0
	}, nil
}

// HTSquare returns E[f̂²] of the HT estimator: value²/reveal.
func HTSquare(value, reveal float64) float64 {
	if reveal <= 0 {
		if value == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return value * value / reveal
}
