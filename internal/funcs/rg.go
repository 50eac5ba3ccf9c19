package funcs

import (
	"fmt"
	"math"

	"repro/internal/sampling"
)

// RG is the symmetric exponentiated range RG_p(v) = (max(v) − min(v))^p
// over r ≥ 2 entries — the summand of the Lp^p difference (Example 1).
// For two instances the lower-bound function of an outcome coincides with
// RGPlus of the pair reordered larger-first, so the Example 4 closed forms
// apply there too.
type RG struct {
	// P is the exponent; must be positive.
	P float64
}

// NewRG validates the exponent.
func NewRG(p float64) (RG, error) {
	if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
		return RG{}, fmt.Errorf("funcs: RG exponent %g must be positive and finite", p)
	}
	return RG{P: p}, nil
}

// Name implements F.
func (f RG) Name() string { return fmt.Sprintf("RG%g", f.P) }

// Arity implements F: any tuple length (a single entry has range 0).
func (f RG) Arity() int { return 0 }

// Value implements F.
func (f RG) Value(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	mn, mx := v[0], v[0]
	for _, x := range v[1:] {
		mn = math.Min(mn, x)
		mx = math.Max(mx, x)
	}
	return math.Pow(mx-mn, f.P)
}

// Lower implements F. With K the known entries (values mn..mx) and U the
// unknown ones (bounds b_i), the range-minimizing completion places each
// unknown inside [mn, mx] when its bound allows and just below the bound
// otherwise, giving inf = (mx − min(mn, min_{i∈U} b_i))^p; with no known
// entry every completion can collapse to a point, giving 0.
func (f RG) Lower(o sampling.TupleOutcome) float64 {
	mn, mx := math.Inf(1), math.Inf(-1)
	minBound := math.Inf(1)
	for i, known := range o.Known {
		if known {
			mn = math.Min(mn, o.Vals[i])
			mx = math.Max(mx, o.Vals[i])
		} else {
			minBound = math.Min(minBound, o.Bound(i))
		}
	}
	return f.lowerOf(mn, mx, minBound)
}

// lowerAtSeed implements seedLower: Lower's walk over the entries, with
// an entry known iff it clears its threshold u·τ_i (SampleInto's test) and
// bounded by that threshold otherwise.
func (f RG) lowerAtSeed(tau, v []float64, u float64) float64 {
	mn, mx := math.Inf(1), math.Inf(-1)
	minBound := math.Inf(1)
	for i, w := range v {
		if t := u * tau[i]; w >= t && w > 0 {
			mn, mx = min(mn, w), max(mx, w)
		} else {
			minBound = min(minBound, t)
		}
	}
	return f.lowerOf(mn, mx, minBound)
}

// lowerOf is Lower from the known entries' extremes (mx = −Inf when none
// is known) and the smallest bound of the unknown ones. The builtin min
// and max select exactly as math.Min and math.Max do (NaN, ±0 and ±Inf
// included) but compile inline, which the kernel's call rate needs.
func (f RG) lowerOf(mn, mx, minBound float64) float64 {
	if math.IsInf(mx, -1) {
		return 0
	}
	return math.Pow(max(0, mx-min(mn, minBound)), f.P)
}

// Upper implements F. Each unknown entry is pushed to 0 ("low") or to its
// bound ("high"); only the assignment with the single best high candidate
// and everything else low can realize the supremum.
func (f RG) Upper(o sampling.TupleOutcome) float64 {
	mn, mx := math.Inf(1), math.Inf(-1)
	unknowns := 0
	for i, known := range o.Known {
		if known {
			mn = math.Min(mn, o.Vals[i])
			mx = math.Max(mx, o.Vals[i])
		} else {
			unknowns++
		}
	}
	best := 0.0
	if !math.IsInf(mx, -1) {
		best = mx - mn // all unknowns inside [mn, mx] is never the sup, but covers |U|=0
		if unknowns > 0 {
			best = math.Max(best, mx-0) // any unknown low
		}
	}
	for j, known := range o.Known {
		if known {
			continue
		}
		bj := o.Bound(j)
		hiMax := bj
		if !math.IsInf(mx, -1) {
			hiMax = math.Max(mx, bj)
		}
		lo := math.Min(mn, bj) // the high entry's own value bounds the min
		if unknowns > 1 {
			lo = 0 // another unknown goes low
		}
		if lo == math.Inf(1) {
			continue // single unknown entry alone: range 0
		}
		best = math.Max(best, hiMax-lo)
	}
	return math.Pow(math.Max(0, best), f.P)
}

// Family implements F: per-unknown sweeps over {0, b/3, 2b/3, b⁻}, capped
// by falling back to extremes when the cross product would explode.
func (f RG) Family(o sampling.TupleOutcome) [][]float64 {
	const maxMembers = 72
	sweep := 3
	unknowns := len(o.Known) - o.NumKnown()
	for unknowns > 0 && pow(sweep+1, unknowns) > maxMembers && sweep > 1 {
		sweep--
	}
	grids := make([][]float64, len(o.Known))
	total := 1
	for i := range o.Known {
		grids[i] = entrySweep(o, i, sweep)
		total *= len(grids[i])
	}
	out := make([][]float64, 0, total)
	idx := make([]int, len(grids))
	for {
		v := make([]float64, len(grids))
		for i, g := range grids {
			v[i] = g[idx[i]]
		}
		out = append(out, v)
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < len(grids[i]) {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			return out
		}
	}
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
		if out > 1<<20 {
			return out
		}
	}
	return out
}

// LStarClosed implements LStarClosedForm for two instances by delegating to
// RGPlus with the larger known entry first: while both entries are sampled
// the range is their difference; once the smaller drops out its bound
// u·τ takes its place; once the larger drops out the smaller one alone is
// below the larger's bound and the lower bound is 0 — entry for entry the
// lower-bound function of RGPlus on the reordered pair. When only one
// entry is known it is treated as the larger; under unequal thresholds it
// may in fact be the smaller, and RGPlus then returns 0 because its value
// does not clear the other entry's bound.
func (f RG) LStarClosed(o sampling.TupleOutcome) (float64, bool) {
	var pair sortedPair
	sorted, ok := pair.of(o)
	if !ok {
		return 0, false
	}
	return RGPlus{P: f.P}.LStarClosed(sorted)
}

// UStarClosed implements UStarClosedForm for two instances under a common
// threshold (see LStarClosed for the reduction; RGPlus.UStarClosed
// declines other schemes).
func (f RG) UStarClosed(o sampling.TupleOutcome) (float64, bool) {
	var pair sortedPair
	sorted, ok := pair.of(o)
	if !ok {
		return 0, false
	}
	return RGPlus{P: f.P}.UStarClosed(sorted)
}

// sortedPair backs a two-entry outcome rewritten so that the known/larger
// entry comes first, values and thresholds together, making RGPlus's
// closed forms applicable to the symmetric range. It lives in the
// caller's frame, so a swap allocates nothing.
type sortedPair struct {
	tau, vals [2]float64
	known     [2]bool
}

// of returns o with its entries in that order — o itself when they already
// are, else an outcome backed by p. It reports false for other arities.
func (p *sortedPair) of(o sampling.TupleOutcome) (sampling.TupleOutcome, bool) {
	if len(o.Known) != 2 {
		return o, false
	}
	swap := false
	switch {
	case o.Known[0] && o.Known[1]:
		swap = o.Vals[1] > o.Vals[0]
	case o.Known[1]:
		swap = true
	}
	if !swap {
		return o, true
	}
	p.tau = [2]float64{o.Scheme.Tau[1], o.Scheme.Tau[0]}
	p.known = [2]bool{o.Known[1], o.Known[0]}
	p.vals = [2]float64{o.Vals[1], o.Vals[0]}
	return sampling.TupleOutcome{
		Scheme: sampling.TupleScheme{Tau: p.tau[:]},
		Rho:    o.Rho,
		Known:  p.known[:],
		Vals:   p.vals[:],
	}, true
}

var (
	_ F               = RG{}
	_ LStarClosedForm = RG{}
	_ UStarClosedForm = RG{}
	_ seedLower       = RG{}
)
