package sampling

import (
	"fmt"
	"math"
)

// TupleScheme is the per-item view of coordinated PPS sampling of r
// instances: entry i of the tuple is observed iff v_i ≥ u·Tau[i], where u
// is the item's shared seed. This is precisely the monotone sampling scheme
// the paper analyzes (Section 1, "Coordinated shared-seed sampling").
type TupleScheme struct {
	// Tau holds the per-instance PPS thresholds τ*_i (all positive).
	Tau []float64
}

// NewTupleScheme validates thresholds and returns the scheme.
func NewTupleScheme(tau []float64) (TupleScheme, error) {
	if len(tau) == 0 {
		return TupleScheme{}, fmt.Errorf("sampling: tuple scheme needs at least one instance")
	}
	out := make([]float64, len(tau))
	for i, t := range tau {
		if t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return TupleScheme{}, fmt.Errorf("sampling: tau[%d] = %g must be positive and finite", i, t)
		}
		out[i] = t
	}
	return TupleScheme{Tau: out}, nil
}

// UniformTuple returns the scheme with τ*_i ≡ 1 for r instances — the
// setting of the paper's Examples 2–4.
func UniformTuple(r int) TupleScheme {
	tau := make([]float64, r)
	for i := range tau {
		tau[i] = 1
	}
	return TupleScheme{Tau: tau}
}

// R returns the number of instances.
func (s TupleScheme) R() int { return len(s.Tau) }

// Threshold returns τ_i(u) = u·τ*_i, the exclusive upper bound on an
// unsampled entry at seed u.
func (s TupleScheme) Threshold(i int, u float64) float64 { return u * s.Tau[i] }

// TupleOutcome is the outcome S(v, u) of sampling one item's tuple: the
// seed, the scheme, and per-entry knowledge. For an unsampled entry the
// data value is known to lie in [0, Threshold(i, Rho)).
type TupleOutcome struct {
	// Scheme is the sampling scheme that produced the outcome.
	Scheme TupleScheme
	// Rho is the seed the sample was drawn with.
	Rho float64
	// Known[i] reports whether entry i was sampled.
	Known []bool
	// Vals[i] is the entry value where Known[i]; zero otherwise.
	Vals []float64
}

// PlacedOutcome is one entry of a sparse outcome list: an outcome with its
// item key and its position in the dense key-ascending list the sparse
// one abbreviates. A bottom-k sample reveals something about at most r·k
// items; every other item's outcome is the same all-unknown default up to
// its seed, so a sample is fully described by these few entries.
type PlacedOutcome struct {
	Key     uint64
	Pos     int
	Outcome TupleOutcome
}

// Sample draws the outcome of the tuple v at seed rho. The tuple length
// must equal the scheme arity and rho must lie in (0, 1].
func (s TupleScheme) Sample(v []float64, rho float64) TupleOutcome {
	return s.SampleInto(v, rho, make([]bool, len(v)), make([]float64, len(v)))
}

// SampleInto draws the same outcome as Sample but writes the per-entry
// knowledge into the caller-provided backing slices (each of length
// len(v)) instead of allocating; the returned outcome aliases known and
// vals. The streaming engine's snapshot reduction backs its exceptional
// outcomes with shared arena arrays through it. Both paths
// share this one loop, so arena-backed and allocated outcomes are
// bit-identical by construction.
func (s TupleScheme) SampleInto(v []float64, rho float64, known []bool, vals []float64) TupleOutcome {
	if len(v) != s.R() {
		panic(fmt.Sprintf("sampling: tuple arity %d != scheme arity %d", len(v), s.R()))
	}
	if len(known) != len(v) || len(vals) != len(v) {
		panic(fmt.Sprintf("sampling: backing lengths %d/%d != tuple arity %d", len(known), len(vals), len(v)))
	}
	if rho <= 0 || rho > 1 {
		panic(fmt.Sprintf("sampling: seed %g outside (0,1]", rho))
	}
	o := TupleOutcome{Scheme: s, Rho: rho, Known: known, Vals: vals}
	for i, w := range v {
		if w >= s.Threshold(i, rho) && w > 0 {
			known[i] = true
			vals[i] = w
		} else {
			known[i] = false
			vals[i] = 0
		}
	}
	return o
}

// At re-derives the (coarser) outcome at seed u ≥ Rho from this outcome:
// exactly the information the estimators are allowed to use. An entry known
// at Rho is known at u iff its value clears the larger threshold; an entry
// unknown at Rho stays unknown.
func (o TupleOutcome) At(u float64) TupleOutcome {
	return o.AtInto(u, make([]bool, len(o.Known)), make([]float64, len(o.Vals)))
}

// AtInto derives the same outcome as At but writes the per-entry knowledge
// into the caller-provided backing slices (each of length len(o.Known))
// instead of allocating; the returned outcome aliases known and vals, so
// it is valid until their next use. Lower-bound functions evaluated many
// times per estimate (funcs.OutcomeLB) coarsen through it with one scratch
// pair. Both paths share this one loop, as Sample and SampleInto do.
func (o TupleOutcome) AtInto(u float64, known []bool, vals []float64) TupleOutcome {
	if u < o.Rho {
		panic(fmt.Sprintf("sampling: At(%g) below outcome seed %g", u, o.Rho))
	}
	if len(known) != len(o.Known) || len(vals) != len(o.Known) {
		panic(fmt.Sprintf("sampling: backing lengths %d/%d != outcome arity %d", len(known), len(vals), len(o.Known)))
	}
	c := TupleOutcome{Scheme: o.Scheme, Rho: u, Known: known, Vals: vals}
	for i := range o.Known {
		if o.Known[i] && o.Vals[i] >= o.Scheme.Threshold(i, u) {
			known[i] = true
			vals[i] = o.Vals[i]
		} else {
			known[i] = false
			vals[i] = 0
		}
	}
	return c
}

// Bound returns the exclusive upper bound on entry i implied by the
// outcome: the value itself when known (inclusive, returned as-is), or the
// threshold at Rho when unknown.
func (o TupleOutcome) Bound(i int) float64 {
	if o.Known[i] {
		return o.Vals[i]
	}
	return o.Scheme.Threshold(i, o.Rho)
}

// LowerVector returns the pointwise-minimal data vector consistent with the
// outcome: known entries carry their value, unknown entries (known only to
// lie in [0, Threshold)) are taken as 0. For a monotone f this vector
// attains the outcome's lower bound; the registry's plug-in v-optimal
// estimator customizes to it.
func (o TupleOutcome) LowerVector() []float64 {
	v := make([]float64, len(o.Vals))
	for i, known := range o.Known {
		if known {
			v[i] = o.Vals[i]
		}
	}
	return v
}

// NumKnown returns the number of sampled entries.
func (o TupleOutcome) NumKnown() int {
	n := 0
	for _, k := range o.Known {
		if k {
			n++
		}
	}
	return n
}

// Same reports whether two outcomes carry identical information (same seed,
// knowledge pattern, values and scheme arity). Estimator honesty tests use
// it: consistent vectors sharing an outcome must share estimates.
func (o TupleOutcome) Same(p TupleOutcome) bool {
	if o.Rho != p.Rho || len(o.Known) != len(p.Known) {
		return false
	}
	for i := range o.Known {
		if o.Known[i] != p.Known[i] {
			return false
		}
		if o.Known[i] && o.Vals[i] != p.Vals[i] {
			return false
		}
		if o.Scheme.Tau[i] != p.Scheme.Tau[i] {
			return false
		}
	}
	return true
}
