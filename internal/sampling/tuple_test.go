package sampling

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTupleSchemeValidation(t *testing.T) {
	if _, err := NewTupleScheme(nil); err == nil {
		t.Error("empty scheme should fail")
	}
	if _, err := NewTupleScheme([]float64{1, 0}); err == nil {
		t.Error("zero threshold should fail")
	}
	if _, err := NewTupleScheme([]float64{1, math.Inf(1)}); err == nil {
		t.Error("infinite threshold should fail")
	}
	s, err := NewTupleScheme([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.R() != 2 {
		t.Errorf("R = %d, want 2", s.R())
	}
	if got := s.Threshold(1, 0.25); got != 0.5 {
		t.Errorf("Threshold(1, 0.25) = %g, want 0.5", got)
	}
}

func TestTupleSampleKnowledge(t *testing.T) {
	s := UniformTuple(3)
	v := []float64{0.95, 0.15, 0.25}
	tests := []struct {
		rho  float64
		want []bool
	}{
		{0.10, []bool{true, true, true}},
		{0.20, []bool{true, false, true}},
		{0.30, []bool{true, false, false}},
		{0.96, []bool{false, false, false}},
	}
	for _, tt := range tests {
		o := s.Sample(v, tt.rho)
		for i := range tt.want {
			if o.Known[i] != tt.want[i] {
				t.Errorf("rho=%g entry %d: known=%v, want %v", tt.rho, i, o.Known[i], tt.want[i])
			}
			if o.Known[i] && o.Vals[i] != v[i] {
				t.Errorf("rho=%g entry %d: val=%g, want %g", tt.rho, i, o.Vals[i], v[i])
			}
		}
	}
}

func TestTupleExample2Outcomes(t *testing.T) {
	// Example 2 of the paper: instances as rows, PPS τ*=1, fixed per-item
	// seeds; checks the printed outcome patterns for all eight items.
	s := UniformTuple(3)
	type itemCase struct {
		name string
		v    []float64
		u    float64
		want []bool
	}
	cases := []itemCase{
		{"a", []float64{0.95, 0.15, 0.25}, 0.32, []bool{true, false, false}},
		{"b", []float64{0, 0.44, 0}, 0.21, []bool{false, true, false}},
		{"c", []float64{0.23, 0, 0}, 0.04, []bool{true, false, false}},
		{"d", []float64{0.70, 0.80, 0.10}, 0.23, []bool{true, true, false}},
		{"e", []float64{0.10, 0.05, 0}, 0.84, []bool{false, false, false}},
		{"f", []float64{0.42, 0.50, 0.22}, 0.70, []bool{false, false, false}},
		{"g", []float64{0, 0.20, 0}, 0.15, []bool{false, true, false}},
		{"h", []float64{0.32, 0, 0}, 0.64, []bool{false, false, false}},
	}
	for _, c := range cases {
		o := s.Sample(c.v, c.u)
		for i := range c.want {
			if o.Known[i] != c.want[i] {
				t.Errorf("item %s entry %d: known=%v, want %v", c.name, i, o.Known[i], c.want[i])
			}
		}
	}
}

func TestTupleAtCoarsensMonotonically(t *testing.T) {
	// Monotone sampling: information only shrinks as the seed grows, and
	// At(u) must agree with sampling directly at u.
	s := UniformTuple(2)
	prop := func(v1Bits, v2Bits, rBits, uBits uint16) bool {
		v := []float64{float64(v1Bits%1000) / 1000, float64(v2Bits%1000) / 1000}
		rho := (float64(rBits%999) + 1) / 1000
		u := rho + (1-rho)*float64(uBits%1000)/1000
		if u <= 0 || u > 1 {
			return true
		}
		derived := s.Sample(v, rho).At(u)
		direct := s.Sample(v, u)
		return derived.Same(direct)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTupleAtPanicsBelowSeed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At below outcome seed should panic")
		}
	}()
	s := UniformTuple(1)
	s.Sample([]float64{0.5}, 0.5).At(0.4)
}

func TestTupleBound(t *testing.T) {
	s, err := NewTupleScheme([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	o := s.Sample([]float64{0.9, 0.1}, 0.5)
	if !o.Known[0] || o.Bound(0) != 0.9 {
		t.Errorf("entry 0 should be known with bound 0.9, got %v %g", o.Known[0], o.Bound(0))
	}
	if o.Known[1] || o.Bound(1) != 1.0 {
		t.Errorf("entry 1 should be unknown with bound u·τ = 1.0, got %v %g", o.Known[1], o.Bound(1))
	}
	if o.NumKnown() != 1 {
		t.Errorf("NumKnown = %d, want 1", o.NumKnown())
	}
}

func TestTupleOutcomeSameDistinguishes(t *testing.T) {
	s := UniformTuple(2)
	a := s.Sample([]float64{0.6, 0.2}, 0.4)
	b := s.Sample([]float64{0.6, 0.3}, 0.4) // same pattern: entry 1 unknown
	if !a.Same(b) {
		t.Error("outcomes with identical knowledge should be Same")
	}
	c := s.Sample([]float64{0.6, 0.5}, 0.4) // entry 1 known now
	if a.Same(c) {
		t.Error("outcomes with different knowledge should differ")
	}
	d := s.Sample([]float64{0.6, 0.2}, 0.3)
	if a.Same(d) {
		t.Error("outcomes at different seeds should differ")
	}
}

func TestZeroWeightNeverKnown(t *testing.T) {
	s := UniformTuple(2)
	for _, rho := range []float64{0.001, 0.5, 1} {
		o := s.Sample([]float64{0, 0.4}, rho)
		if o.Known[0] {
			t.Errorf("zero entry sampled at rho=%g", rho)
		}
	}
}

func TestSampleIntoMatchesSample(t *testing.T) {
	// SampleInto must produce bit-identical outcomes to Sample and fully
	// overwrite dirty backing (the engine's arenas are reused snapshots'
	// memory in spirit — no stale truth may leak through).
	s, err := NewTupleScheme([]float64{1, 0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	known := []bool{true, true, true}
	vals := []float64{9, 9, 9}
	for _, tc := range []struct {
		v   []float64
		rho float64
	}{
		{[]float64{0.95, 0.15, 0.25}, 0.1},
		{[]float64{0.95, 0.15, 0.25}, 0.9},
		{[]float64{0, 0.5, 1}, 0.5},
		{[]float64{0, 0, 0}, 1},
	} {
		want := s.Sample(tc.v, tc.rho)
		got := s.SampleInto(tc.v, tc.rho, known, vals)
		if !got.Same(want) {
			t.Errorf("v=%v rho=%g: SampleInto %+v != Sample %+v", tc.v, tc.rho, got, want)
		}
		if &got.Known[0] != &known[0] || &got.Vals[0] != &vals[0] {
			t.Error("SampleInto did not alias the provided backing")
		}
	}
}

func TestSampleIntoRejectsBadBacking(t *testing.T) {
	s := UniformTuple(2)
	defer func() {
		if recover() == nil {
			t.Error("mismatched backing lengths should panic")
		}
	}()
	s.SampleInto([]float64{1, 2}, 0.5, make([]bool, 1), make([]float64, 2))
}

func TestAtIntoMatchesAt(t *testing.T) {
	// AtInto must produce the outcome At does and fully overwrite dirty
	// backing: a lower-bound function reuses one scratch pair across
	// seeds, coarser and finer in any order.
	s, err := NewTupleScheme([]float64{1, 0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	o := s.Sample([]float64{0.95, 0.15, 0.6}, 0.1)
	known := []bool{true, true, true}
	vals := []float64{9, 9, 9}
	for _, u := range []float64{1, 0.1, 0.5, 0.3, 0.2, 0.96, 0.29} {
		want := o.At(u)
		got := o.AtInto(u, known, vals)
		if !got.Same(want) {
			t.Errorf("u=%g: AtInto %+v != At %+v", u, got, want)
		}
		for i := range want.Vals {
			if got.Vals[i] != want.Vals[i] {
				t.Errorf("u=%g: stale value %g left in entry %d", u, got.Vals[i], i)
			}
		}
		if &got.Known[0] != &known[0] || &got.Vals[0] != &vals[0] {
			t.Error("AtInto did not alias the provided backing")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched backing lengths should panic")
		}
	}()
	o.AtInto(0.5, make([]bool, 2), make([]float64, 3))
}
