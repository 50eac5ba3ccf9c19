package funcs

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/sampling"
)

// The closed-form L* of RGPlus and two-instance RG holds under per-instance
// thresholds (bottom-k conditioning never produces equal ones). These tests
// pin it against formula (31) integrated through outcome coarsening, and
// pin the common-τ case bit for bit against Example 4's expression.

// exampleFourLStar is the common-τ closed form as it stood before the
// per-instance generalization, kept as the reference the generalized form
// must reproduce exactly when τ1 = τ2.
func exampleFourLStar(f RGPlus, o sampling.TupleOutcome) float64 {
	tau := o.Scheme.Tau[0]
	if !o.Known[0] {
		return 0
	}
	w1 := o.Vals[0] / tau
	a := o.Rho
	if o.Known[1] {
		a = math.Max(o.Vals[1]/tau, o.Rho)
	}
	if w1 <= a {
		return 0
	}
	lo := math.Min(a, 1)
	hi := math.Min(w1, 1)
	return math.Pow(tau, f.P) * (math.Pow(w1-a, f.P)/lo - f.tailIntegral(w1, lo, hi))
}

// mustClosed returns the closed-form L* of f on o, failing the test when
// the closed form declines.
func mustClosed(t testing.TB, f F, o sampling.TupleOutcome) float64 {
	t.Helper()
	closed, ok := f.(LStarClosedForm).LStarClosed(o)
	if !ok {
		t.Fatalf("%s: closed form declined on %+v", f.Name(), o)
	}
	return closed
}

func pairOutcome(t testing.TB, v1, v2, tau1, tau2, rho float64) sampling.TupleOutcome {
	t.Helper()
	s, err := sampling.NewTupleScheme([]float64{tau1, tau2})
	if err != nil {
		t.Fatal(err)
	}
	return s.Sample([]float64{v1, v2}, rho)
}

func TestLStarClosedPerInstanceTauProperty(t *testing.T) {
	const drawsPerExponent = 2500 // × 4 exponents = 10,000 draws, each through RG+ and RG
	rng := rand.New(rand.NewSource(20140243))
	logUniform := func(lo, hi float64) float64 {
		return lo * math.Pow(hi/lo, rng.Float64())
	}
	worst := 0.0
	for _, p := range []float64{0.5, 1, 2, 3} {
		for _, f := range []F{RGPlus{P: p}, RG{P: p}} {
			for d := 0; d < drawsPerExponent; d++ {
				tau1, tau2 := logUniform(0.25, 4), logUniform(0.25, 4)
				if d%5 == 0 {
					tau2 = tau1
				}
				// Scaled weights up to 1.5: a fifth of the entries are
				// above their threshold (always sampled).
				v1, v2 := tau1*1.5*rng.Float64(), tau2*1.5*rng.Float64()
				// Seeds from 0.05: the reference's quadrature tolerance is
				// relative to head and tail of formula (31), which grow as
				// 1/ρ while their difference does not (the fuzz target
				// covers smaller seeds with a tolerance scaled to the head).
				o := pairOutcome(t, v1, v2, tau1, tau2, logUniform(0.05, 1))
				closed, generic := mustClosed(t, f, o), core.LStarAt(OutcomeLB(f, o), o.Rho)
				diff := math.Abs(closed - generic)
				if diff > 1e-9*(1+math.Abs(generic)) {
					t.Fatalf("%s v=(%g,%g) τ=(%g,%g) ρ=%g: closed %.17g vs quadrature %.17g",
						f.Name(), v1, v2, tau1, tau2, o.Rho, closed, generic)
				}
				worst = math.Max(worst, diff/(1+math.Abs(generic)))
				if tau1 == tau2 {
					ref := o
					var pair sortedPair
					if _, isRG := f.(RG); isRG {
						ref, _ = pair.of(o)
					}
					if want := exampleFourLStar(RGPlus{P: p}, ref); closed != want {
						t.Fatalf("%s common τ=%g v=(%g,%g) ρ=%g: closed %.17g != Example 4 %.17g",
							f.Name(), tau1, v1, v2, o.Rho, closed, want)
					}
				}
			}
		}
	}
	t.Logf("worst |closed − quadrature|/(1+|x|) over all draws: %.3g", worst)
}

func TestLStarClosedPerInstanceTauCases(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		v1, v2, tau1, tau2, ro float64
		known                  [2]bool
		zero                   bool // both functions must return exactly 0
	}{
		// Entry 2 stays visible to v2/τ2 = 0.8, entry 1 only to v1/τ1 =
		// 0.5: the constant stretch of the lower bound ends at 0.5.
		{name: "larger entry hidden first", v1: 2, v2: 0.4, tau1: 4, tau2: 0.5, ro: 0.1, known: [2]bool{true, true}},
		{name: "larger entry always sampled", v1: 3, v2: 0.3, tau1: 2, tau2: 1, ro: 0.2, known: [2]bool{true, true}},
		{name: "both always sampled", v1: 3, v2: 2.5, tau1: 2, tau2: 1, ro: 0.6, known: [2]bool{true, true}},
		{name: "smaller entry unknown", v1: 0.9, v2: 0.1, tau1: 1, tau2: 2, ro: 0.3, known: [2]bool{true, false}},
		// Only entry 1 is known and 0.5 < ρ·τ2 = 0.8: entry 2 may be the
		// larger one, every consistent range can collapse to 0.
		{name: "one known below the other's bound", v1: 0.5, v2: 0.7, tau1: 1, tau2: 4, ro: 0.2, known: [2]bool{true, false}, zero: true},
		{name: "both known and equal", v1: 0.6, v2: 0.6, tau1: 1, tau2: 2, ro: 0.1, known: [2]bool{true, true}, zero: true},
	} {
		o := pairOutcome(t, tc.v1, tc.v2, tc.tau1, tc.tau2, tc.ro)
		if [2]bool{o.Known[0], o.Known[1]} != tc.known {
			t.Fatalf("%s: knowledge %v, want %v", tc.name, o.Known, tc.known)
		}
		mirrored := pairOutcome(t, tc.v2, tc.v1, tc.tau2, tc.tau1, tc.ro)
		for _, p := range []float64{0.5, 1, 2, 3} {
			for _, f := range []F{RGPlus{P: p}, RG{P: p}} {
				closed, generic := mustClosed(t, f, o), core.LStarAt(OutcomeLB(f, o), o.Rho)
				if math.Abs(closed-generic) > 1e-9*(1+math.Abs(generic)) {
					t.Errorf("%s %s: closed %.17g vs quadrature %.17g", tc.name, f.Name(), closed, generic)
				}
				if tc.zero && closed != 0 {
					t.Errorf("%s %s: closed %g, want exactly 0", tc.name, f.Name(), closed)
				}
				if !tc.zero && closed <= 0 {
					t.Errorf("%s %s: closed %g, want positive", tc.name, f.Name(), closed)
				}
			}
			// RG is symmetric in the instances, thresholds included.
			rg := RG{P: p}
			a, _ := rg.LStarClosed(o)
			b, _ := rg.LStarClosed(mirrored)
			if a != b {
				t.Errorf("%s RG%g: %g on the outcome, %g on its mirror image", tc.name, p, a, b)
			}
		}
	}
}

// lstarPiecewise evaluates formula (31) through outcome coarsening like
// core.LStarAt, but splits the integral at every seed where the pair's
// lower-bound function can kink or jump (an entry dropping out of the
// sample at v_i/τ_i, a bound overtaking a value at v_i/τ_j) and tightens
// the tolerance: adaptive Simpson started blind across a kink can settle
// 10⁻⁶ off, which is the reference's error, not the closed form's.
func lstarPiecewise(f F, o sampling.TupleOutcome) float64 {
	lb := OutcomeLB(f, o)
	cuts := []float64{o.Rho, 1}
	for i, known := range o.Known {
		for _, tau := range o.Scheme.Tau {
			if x := o.Vals[i] / tau; known && x > o.Rho && x < 1 {
				cuts = append(cuts, x)
			}
		}
	}
	sort.Float64s(cuts)
	var tail numeric.Kahan
	for i := 1; i < len(cuts); i++ {
		// Left-continuity: a jump at the segment's left end belongs to
		// the previous segment.
		lo := math.Nextafter(cuts[i-1], 2)
		seg, _ := numeric.IntegrateOpt(func(x float64) float64 { return lb(x) / (x * x) },
			lo, cuts[i], numeric.QuadOptions{AbsTol: 1e-14, RelTol: 1e-12})
		tail.Add(seg)
	}
	return lb(o.Rho)/o.Rho - tail.Sum()
}

// FuzzLStarClosedVsQuadrature drives the closed form against quadrature
// from arbitrary inputs folded into the regime the serving path produces:
// positive finite thresholds, seeds in (0, 1], weights up to a few
// thresholds.
func FuzzLStarClosedVsQuadrature(f *testing.F) {
	f.Add(2.0, 0.4, 4.0, 0.5, 0.1, uint8(0)) // larger entry hidden first
	f.Add(3.0, 0.3, 2.0, 1.0, 0.2, uint8(1)) // always sampled
	f.Add(0.5, 0.7, 1.0, 4.0, 0.2, uint8(6)) // one known, below the other's bound
	f.Add(0.6, 0.6, 1.0, 2.0, 0.1, uint8(7)) // equal
	exponents := []float64{0.5, 1, 2, 3}
	fold := func(x, lo, hi float64) float64 { // any float → [lo, hi)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return lo
		}
		return lo + math.Mod(math.Abs(x), hi-lo)
	}
	f.Fuzz(func(t *testing.T, x1, x2, t1, t2, r float64, shape uint8) {
		tau1, tau2 := fold(t1, 0.01, 100), fold(t2, 0.01, 100)
		rho := fold(r, 0.01, 1)
		v1, v2 := tau1*fold(x1, 0, 3), tau2*fold(x2, 0, 3)
		p := exponents[int(shape)%len(exponents)]
		var fn F = RGPlus{P: p}
		if shape&4 != 0 {
			fn = RG{P: p}
		}
		o := pairOutcome(t, v1, v2, tau1, tau2, rho)
		closed := mustClosed(t, fn, o)
		// Both sides subtract a tail from a head of size f^(v)(ρ)/ρ, and
		// for p ∉ {1, 2} the closed form's own tail is a default-tolerance
		// quadrature: the tolerance is relative to those terms.
		head := fn.Lower(o) / o.Rho
		if want := lstarPiecewise(fn, o); math.Abs(closed-want) > 1e-8*(1+head) {
			t.Fatalf("%s v=(%g,%g) τ=(%g,%g) ρ=%g: closed %.17g vs quadrature %.17g",
				fn.Name(), v1, v2, tau1, tau2, rho, closed, want)
		}
	})
}
