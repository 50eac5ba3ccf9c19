package funcs

import (
	"math"
	"testing"

	"repro/internal/sampling"
)

// TestOutcomeLBAllocationFree: functions without a closed-form L* (RG over
// more than two instances, LinComb) integrate OutcomeLB hundreds of times
// per estimate; each evaluation must reuse the closure's scratch outcome
// and return exactly what coarsening through a fresh o.At(u) returns.
func TestOutcomeLBAllocationFree(t *testing.T) {
	s, err := sampling.NewTupleScheme([]float64{1, 0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	o := s.Sample([]float64{0.95, 0.15, 0.6}, 0.1)
	lin, err := NewLinComb([]float64{1, -2, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []F{RG{P: 1}, RG{P: 2}, lin, MaxTuple{}, AndTuple{}} {
		lb := OutcomeLB(f, o)
		for _, u := range []float64{0.05, 0.1, 1, 0.3, 0.2, 0.29, 0.96, 2} {
			at := math.Min(math.Max(u, o.Rho), 1)
			if got, want := lb(u), f.Lower(o.At(at)); got != want {
				t.Errorf("%s: OutcomeLB(%g) = %g, Lower(At) = %g", f.Name(), u, got, want)
			}
		}
		var sink float64
		if allocs := testing.AllocsPerRun(100, func() { sink += lb(0.3) + lb(0.7) }); allocs != 0 {
			t.Errorf("%s: OutcomeLB evaluation allocates %v times", f.Name(), allocs)
		}
		_ = sink
	}
}
