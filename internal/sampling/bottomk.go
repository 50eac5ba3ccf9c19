package sampling

import (
	"math"
	"sort"
)

// This file holds the bottom-k → monotone-outcome reduction shared by the
// batch sampler (dataset.SampleBottomK) and the streaming sketch engine
// (internal/engine). Both must agree bit-for-bit so that incrementally
// maintained sketches answer exactly as a from-scratch sample of the same
// data: the paper's footnote 1 conditions on the seeds of the other items,
// under which item k is included in an instance iff its rank is below the
// k-th smallest rank among the other items — a linear (PPS) threshold.

// KSmallest returns the min(k, #finite) smallest finite values of xs,
// sorted ascending. +Inf entries (absent or zero-weight items) are skipped.
func KSmallest(xs []float64, k int) []float64 {
	finite := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsInf(x, 1) {
			finite = append(finite, x)
		}
	}
	sort.Float64s(finite)
	if len(finite) > k {
		finite = finite[:k]
	}
	return finite
}

// CondThreshold returns the conditional inclusion threshold t of an item
// with the given rank: the k-th smallest rank among the *other* items,
// derived from smallest — the (at most k+1) smallest ranks of the whole
// instance as produced by KSmallest(ranks, k+1). When fewer than k other
// items exist the item is always included and t is +Inf. Only
// len(smallest), smallest[k-1] and smallest[k] are read, so a caller that
// selects those two order statistics may leave the rest unordered.
func CondThreshold(smallest []float64, k int, rank float64) float64 {
	t := math.Inf(1)
	switch {
	case len(smallest) > k:
		// k-th among others: skip over the item itself when it is one of
		// the k smallest.
		if rank <= smallest[k-1] {
			t = smallest[k]
		} else {
			t = smallest[k-1]
		}
	case len(smallest) == k:
		if rank <= smallest[k-1] {
			t = math.Inf(1) // fewer than k others: always included
		} else {
			t = smallest[k-1]
		}
	}
	return t
}

// TauFromThreshold converts a conditional rank threshold t into the PPS
// threshold τ* = 1/t of the item's TupleScheme. An infinite t (always
// included) maps to an arbitrarily permissive positive τ*, since
// NewTupleScheme requires finite positive thresholds. A subnormal t (an
// item with a near-overflow weight, rank u/w ~ 1e-309) would make 1/t
// overflow to +Inf and invalidate the scheme; it is clamped to the most
// restrictive finite τ* instead. Inclusion at that extreme is slightly
// more permissive than the exact rank comparison, but both reduction
// paths (batch and streaming) apply the same clamp, so they still agree
// bit-for-bit instead of crashing.
func TauFromThreshold(t float64) float64 {
	if math.IsInf(t, 1) {
		return 1e-12
	}
	if tau := 1 / t; !math.IsInf(tau, 1) {
		return tau
	}
	return math.MaxFloat64
}
