package funcs

import (
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/sampling"
)

// RGPlus is the asymmetric exponentiated range RG_{p+}(v1, v2) =
// max(0, v1 − v2)^p — the summand of the increase-only difference Lpp+
// (Example 1 of the paper). The closed-form L* estimate follows Example 4
// under any per-instance PPS thresholds; the closed-form U* applies when
// all instances share a common threshold.
type RGPlus struct {
	// P is the exponent; must be positive.
	P float64
}

// NewRGPlus validates the exponent.
func NewRGPlus(p float64) (RGPlus, error) {
	if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
		return RGPlus{}, fmt.Errorf("funcs: RG+ exponent %g must be positive and finite", p)
	}
	return RGPlus{P: p}, nil
}

// Name implements F.
func (f RGPlus) Name() string { return fmt.Sprintf("RG%g+", f.P) }

// Arity implements F.
func (f RGPlus) Arity() int { return 2 }

// Value implements F.
func (f RGPlus) Value(v []float64) float64 {
	return math.Pow(math.Max(0, v[0]-v[1]), f.P)
}

// Lower implements F: the minimizing consistent vector sets an unknown
// first entry to 0 and an unknown second entry to its upper bound.
func (f RGPlus) Lower(o sampling.TupleOutcome) float64 {
	minuend := 0.0
	if o.Known[0] {
		minuend = o.Vals[0]
	}
	subtrahend := o.Bound(1) // value when known, threshold bound otherwise
	return math.Pow(math.Max(0, minuend-subtrahend), f.P)
}

// lowerAtSeed implements seedLower: Lower with an entry known iff it
// clears its threshold u·τ_i (SampleInto's test).
func (f RGPlus) lowerAtSeed(tau, v []float64, u float64) float64 {
	minuend := 0.0
	if v[0] >= u*tau[0] && v[0] > 0 {
		minuend = v[0]
	}
	subtrahend := u * tau[1]
	if v[1] >= subtrahend && v[1] > 0 {
		subtrahend = v[1]
	}
	return math.Pow(max(0, minuend-subtrahend), f.P)
}

// Upper implements F: the maximizing vector pushes an unknown first entry
// to its bound and an unknown second entry to 0. The supremum is approached
// (bounds are exclusive) but not attained.
func (f RGPlus) Upper(o sampling.TupleOutcome) float64 {
	minuend := o.Bound(0)
	subtrahend := 0.0
	if o.Known[1] {
		subtrahend = o.Vals[1]
	}
	return math.Pow(math.Max(0, minuend-subtrahend), f.P)
}

// Family implements F: unknown entries sweep a small grid of their allowed
// interval including both f-extremes. Margins keep discontinuities away
// from the seed (see core.ConsistentFamily).
func (f RGPlus) Family(o sampling.TupleOutcome) [][]float64 {
	const sweep = 6
	firsts := entrySweep(o, 0, sweep)
	seconds := entrySweep(o, 1, sweep)
	out := make([][]float64, 0, len(firsts)*len(seconds))
	for _, a := range firsts {
		for _, b := range seconds {
			out = append(out, []float64{a, b})
		}
	}
	return out
}

// entrySweep returns candidate values for entry i: the known value, or a
// grid over [0, bound) with a relative safety margin.
func entrySweep(o sampling.TupleOutcome, i, sweep int) []float64 {
	if o.Known[i] {
		return []float64{o.Vals[i]}
	}
	bound := o.Bound(i) * (1 - 1e-6)
	vals := make([]float64, 0, sweep+1)
	for j := 0; j <= sweep; j++ {
		vals = append(vals, bound*float64(j)/float64(sweep))
	}
	return vals
}

// commonTau returns the shared PPS threshold when all entries use the same
// one; the U* closed forms rescale by it.
func commonTau(o sampling.TupleOutcome) (float64, bool) {
	tau := o.Scheme.Tau[0]
	for _, t := range o.Scheme.Tau[1:] {
		if t != tau {
			return 0, false
		}
	}
	return tau, true
}

// LStarClosed implements LStarClosedForm (Example 4, extended to scaled
// weights above the threshold and to per-instance thresholds τ1, τ2, which
// is what bottom-k conditioning produces). With entry 1 known, the
// outcome's lower-bound function on [ρ, 1] is
//
//	f^(v)(u) = (v1 − τ2·max(a, u))^p  for u ≤ v1/τ1,   0 beyond,
//
// where a = max(v2/τ2, ρ) when entry 2 is known (its value until it drops
// out of the sample at v2/τ2, its bound u·τ2 after) and a = ρ otherwise.
// Writing w = v1/τ2, the function is constant on [ρ, A], decays as
// (w − u)^p on [A, B] and is 0 past B = min(v1/τ1, w, 1) — entry 1 hidden,
// the bound overtaking v1, or the seed range ending. The constant stretch
// ends at A = min(a, B), not min(a, 1): entry 1 may drop out of the sample
// before entry 2 does. Formula (31) then integrates to
//
//	fˆ(L) = τ2^p · [ (w−a)^p/A − ∫_A^B (w−x)^p/x² dx ],
//
// and 0 whenever entry 1 is unknown or w ≤ a. With τ1 = τ2 this is
// Example 4 rescaled. Exact antiderivatives are used for p ∈ {1, 2};
// other exponents evaluate the definite integral by quadrature (still far
// cheaper and better-conditioned than the generic outcome-coarsening
// path).
func (f RGPlus) LStarClosed(o sampling.TupleOutcome) (float64, bool) {
	if !o.Known[0] {
		return 0, true
	}
	tau1, tau2 := o.Scheme.Tau[0], o.Scheme.Tau[1]
	w := o.Vals[0] / tau2
	a := o.Rho
	if o.Known[1] {
		a = math.Max(o.Vals[1]/tau2, o.Rho)
	}
	if w <= a {
		return 0, true
	}
	hi := math.Min(math.Min(o.Vals[0]/tau1, w), 1)
	lo := math.Min(a, hi)
	scale := math.Pow(tau2, f.P)
	return scale * (math.Pow(w-a, f.P)/lo - f.tailIntegral(w, lo, hi)), true
}

// tailIntegral computes ∫_lo^hi (w−x)^p/x² dx (0 when hi ≤ lo).
func (f RGPlus) tailIntegral(w, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	switch f.P {
	case 1:
		return w*(1/lo-1/hi) - math.Log(hi/lo)
	case 2:
		return w*w*(1/lo-1/hi) - 2*w*math.Log(hi/lo) + (hi - lo)
	default:
		return numeric.Integrate(func(x float64) float64 {
			return math.Pow(w-x, f.P) / (x * x)
		}, lo, hi)
	}
}

// UStarClosed implements UStarClosedForm (Example 4): with scaled values,
// on outcomes where only entry 1 is known the estimate is p(w1−ρ)^{p−1}
// for p ≥ 1 and w1^{p−1} for p < 1; when both entries are known it is 0
// for p ≥ 1 and ((w1−w2)^p − w1^{p−1}(w1−w2))/w2 for p < 1; otherwise 0.
//
// Above the threshold (scaled weights exceeding 1, which Example 4's
// domain never reaches) the closed forms change. When both entries are
// always sampled the estimate is pinned to the revealed f. When only
// entry 1 is always sampled, equation (48) with equality can overdraw: its
// accumulated mass violates constraint (7) for consistent vectors whose
// second entry is large, so no estimator attains the upper range extreme
// everywhere. The feasible upper-greedy extension rides the (7) boundary
// (M(x) ≤ f^(v)(x)) and coincides with U* wherever U* exists; solving the
// defining equation with that cap gives, for scaled w1 > 1 ≥ w2 and seeds
// where entry 2 is hidden:
//
//	p = 1:          w1                               (never hits the cap)
//	p = 2, w1 < 2:  4(w1−1)  on ρ > 2−w1,  2(w1−ρ)  on ρ ≤ 2−w1 (cap ride)
//	p = 2, w1 ≥ 2:  w1²                              (never hits the cap)
//
// with the both-entries-known remainder spread uniformly. Exponents other
// than 1 and 2 fall back to the numeric solver (ok = false).
func (f RGPlus) UStarClosed(o sampling.TupleOutcome) (float64, bool) {
	tau, ok := commonTau(o)
	if !ok {
		return 0, false
	}
	if !o.Known[0] {
		return 0, true
	}
	w1 := o.Vals[0] / tau
	scale := math.Pow(tau, f.P)
	if o.Known[1] && o.Vals[1]/tau >= 1 {
		// Both entries always sampled: every outcome reveals f.
		return scale * math.Pow(math.Max(0, w1-o.Vals[1]/tau), f.P), true
	}
	if w1 > 1 {
		switch f.P {
		case 1:
			if !o.Known[1] {
				return scale * w1, true
			}
			return scale * (w1 - 1), true
		case 2:
			return scale * f.uStarTruncatedP2(o, w1), true
		default:
			return 0, false // no closed form; use the numeric solver
		}
	}
	if !o.Known[1] {
		if w1 <= o.Rho {
			return 0, true
		}
		if f.P >= 1 {
			return scale * f.P * math.Pow(w1-o.Rho, f.P-1), true
		}
		return scale * math.Pow(w1, f.P-1), true
	}
	w2 := o.Vals[1] / tau
	if w1 <= w2 || f.P >= 1 {
		return 0, true
	}
	return scale * (math.Pow(w1-w2, f.P) - math.Pow(w1, f.P-1)*(w1-w2)) / w2, true
}

// uStarTruncatedP2 evaluates the upper-greedy U* extension for p = 2 with
// scaled w1 > 1 (see UStarClosed). Scaled values throughout; the caller
// multiplies by τ².
func (f RGPlus) uStarTruncatedP2(o sampling.TupleOutcome, w1 float64) float64 {
	rho0 := math.Max(0, 2-w1) // cap-ride boundary (0 when w1 ≥ 2)
	// Mass committed while entry 2 was hidden, down to seed x:
	// w1 ≥ 2: M(x) = w1²(1−x);
	// w1 < 2: M(x) = 4(w1−1)(1−x) for x ≥ ρ0, and the cap (w1−x)² below.
	mass := func(x float64) float64 {
		if w1 >= 2 {
			return w1 * w1 * (1 - x)
		}
		if x >= rho0 {
			return 4 * (w1 - 1) * (1 - x)
		}
		return (w1 - x) * (w1 - x)
	}
	if !o.Known[1] {
		if w1 >= 2 {
			return w1 * w1
		}
		if o.Rho > rho0 {
			return 4 * (w1 - 1)
		}
		return 2 * (w1 - o.Rho) // riding the (7) boundary
	}
	w2 := o.Vals[1] / tauOf(o)
	val := math.Max(0, w1-w2)
	rem := val*val - mass(w2)
	if rem <= 0 || w2 <= 0 {
		return 0
	}
	return rem / w2
}

func tauOf(o sampling.TupleOutcome) float64 {
	return o.Scheme.Tau[0]
}

var (
	_ F               = RGPlus{}
	_ LStarClosedForm = RGPlus{}
	_ UStarClosedForm = RGPlus{}
	_ seedLower       = RGPlus{}
)
