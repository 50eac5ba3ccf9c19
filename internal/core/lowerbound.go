package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/hull"
	"repro/internal/numeric"
)

// LowerBoundFunc is the lower-bound function f^(v) of a monotone estimation
// problem for a fixed data vector: non-increasing, left-continuous on (0,1],
// nonnegative, with lim_{u→0+} f^(v)(u) = f(v) whenever an unbiased
// nonnegative estimator exists (condition (9) of the paper).
type LowerBoundFunc func(u float64) float64

// SeedFunc is an estimator evaluated for a fixed data vector as a function
// of the seed: u ↦ f̂(S(v,u)). All statistical evaluation (unbiasedness,
// variance, competitiveness) integrates SeedFuncs over u ∈ (0,1].
type SeedFunc func(u float64) float64

// ErrNotEstimable reports that no unbiased nonnegative estimator exists for
// the data vector: the lower bound does not converge to the target value
// (condition (9) fails).
var ErrNotEstimable = errors.New("core: no unbiased nonnegative estimator exists (condition (9) fails)")

// CheckEstimable verifies condition (9) numerically: lb(u) → value as
// u → 0+. It returns ErrNotEstimable (wrapped) when the limit falls short.
func CheckEstimable(lb LowerBoundFunc, value float64) error {
	if value == 0 {
		return nil
	}
	u := 1e-3
	for i := 0; i < 60; i++ {
		if lb(u) >= value*(1-1e-9)-1e-12 {
			return nil
		}
		u /= 4
	}
	return fmt.Errorf("lb(%g)=%g short of f(v)=%g: %w", u, lb(u), value, ErrNotEstimable)
}

// Step describes one jump of a step-shaped lower-bound function: moving the
// seed downward across At, the lower bound increases by Delta (> 0).
type Step struct {
	At    float64
	Delta float64
}

// StepLB builds the lower-bound function with the given jumps and base value
// lb(1). Steps may be in any order; At must lie in (0, 1].
func StepLB(base float64, steps []Step) LowerBoundFunc {
	ss := make([]Step, len(steps))
	copy(ss, steps)
	sort.Slice(ss, func(i, j int) bool { return ss[i].At < ss[j].At })
	return func(u float64) float64 {
		v := base
		for _, s := range ss {
			if u <= s.At {
				v += s.Delta
			}
		}
		return v
	}
}

// DefaultGrid is the serving-path grid shared by every U*/v-optimal
// evaluation that aggregates over many outcomes (dataset sums, the
// estimator registry): coarse enough to keep per-item cost low, and
// justified against finer grids by ablation_test.go. Single-outcome
// analyses that need the full resolution pass Grid{} instead.
func DefaultGrid() Grid { return Grid{N: 200} }

// Grid controls the discretization used by curve builders and hull-based
// optima. The zero value selects sensible defaults.
type Grid struct {
	// Eps is the smallest seed represented; mass below Eps is extrapolated.
	// Default 1e-7.
	Eps float64
	// N is the number of geometrically spaced points. Default 1600.
	N int
	// Breaks are exact discontinuity/kink locations of the lower-bound
	// function, added to the grid together with points just above them so
	// that jumps are resolved exactly.
	Breaks []float64
}

func (g Grid) withDefaults() Grid {
	if g.Eps <= 0 {
		g.Eps = 1e-7
	}
	if g.N < 16 {
		g.N = 1600
	}
	return g
}

// Points materializes the grid on (0,1]: geometric spacing plus breakpoints
// and their right neighbors, sorted ascending, deduplicated, ending at 1.
func (g Grid) Points() []float64 {
	g = g.withDefaults()
	pts := numeric.Geomspace(g.Eps, 1, g.N)
	for _, b := range g.Breaks {
		if b > g.Eps && b < 1 {
			pts = append(pts, b, math.Nextafter(b, 2), b*(1+1e-9))
		}
	}
	sort.Float64s(pts)
	uniq := pts[:1]
	for _, x := range pts[1:] {
		if x != uniq[len(uniq)-1] {
			uniq = append(uniq, x)
		}
	}
	return uniq
}

// defaultPoints is DefaultGrid's Points, computed once: the grid every
// served U* estimate solves over.
var defaultPoints = sync.OnceValue(DefaultGrid().Points)

// sharedPoints is Points, shared across calls on DefaultGrid, so the
// result must not be written.
func (g Grid) sharedPoints() []float64 {
	if d, gd := DefaultGrid().withDefaults(), g.withDefaults(); len(g.Breaks) == 0 && gd.Eps == d.Eps && gd.N == d.N {
		return defaultPoints()
	}
	return g.Points()
}

// VOptimalHull returns the greatest convex minorant of the lower-bound
// function on [0,1], pinned at (0, value) where value = f(v). Its negated
// left-slope at u is the v-optimal estimate (Theorem 2.1), and its
// IntegralSquaredSlope(0,1) is the minimum attainable E[f̂²|v].
func VOptimalHull(lb LowerBoundFunc, value float64, g Grid) (hull.PiecewiseLinear, error) {
	us := g.Points()
	pts := make([]hull.Point, 0, len(us)+2)
	pts = append(pts, hull.Point{X: 0, Y: value})
	for _, u := range us {
		pts = append(pts, hull.Point{X: u, Y: lb(u)})
	}
	// Theorem 2.1 anchors the hull at (ρv, M) = (1, 0): when lb(1) > 0 the
	// anchor sits strictly below the constraint there (hull.Lower keeps the
	// lower of duplicate-x points).
	pts = append(pts, hull.Point{X: 1, Y: 0})
	h, err := hull.Lower(pts)
	if err != nil {
		return hull.PiecewiseLinear{}, fmt.Errorf("v-optimal hull: %w", err)
	}
	return h, nil
}

// VOptimal returns the v-optimal oracle estimator (minimum variance for this
// particular data vector among unbiased nonnegative estimators) as a
// SeedFunc, together with its E[f̂²].
func VOptimal(lb LowerBoundFunc, value float64, g Grid) (SeedFunc, float64, error) {
	h, err := VOptimalHull(lb, value, g)
	if err != nil {
		return nil, 0, err
	}
	est := func(u float64) float64 {
		if u <= 0 || u > 1 {
			return 0
		}
		return math.Max(0, -h.SlopeLeft(u))
	}
	return est, h.IntegralSquaredSlope(0, 1), nil
}

// OptimalSquare returns the minimum attainable E[f̂²|v] over unbiased
// nonnegative estimators — the denominator of the competitive ratio.
func OptimalSquare(lb LowerBoundFunc, value float64, g Grid) (float64, error) {
	h, err := VOptimalHull(lb, value, g)
	if err != nil {
		return 0, err
	}
	return h.IntegralSquaredSlope(0, 1), nil
}
