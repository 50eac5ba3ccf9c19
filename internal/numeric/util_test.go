package numeric

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(xs) != len(want) {
		t.Fatalf("len = %d, want %d", len(xs), len(want))
	}
	for i := range xs {
		if !EqualWithin(xs[i], want[i], 1e-12) {
			t.Errorf("xs[%d] = %g, want %g", i, xs[i], want[i])
		}
	}
}

func TestGeomspaceEndpointsAndMonotonicity(t *testing.T) {
	xs := Geomspace(1e-6, 1, 41)
	if xs[0] != 1e-6 || xs[len(xs)-1] != 1 {
		t.Fatalf("endpoints = %g, %g", xs[0], xs[len(xs)-1])
	}
	if !sort.Float64sAreSorted(xs) {
		t.Error("Geomspace output is not sorted")
	}
	// Ratio between consecutive points should be constant.
	r := xs[1] / xs[0]
	for i := 2; i < len(xs); i++ {
		if !EqualWithin(xs[i]/xs[i-1], r, 1e-9) {
			t.Errorf("ratio at %d = %g, want %g", i, xs[i]/xs[i-1], r)
		}
	}
}

func TestMinimizeGoldenQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 0.37) * (x - 0.37) }
	x, fx := MinimizeGolden(f, 0, 1, 1e-10)
	if math.Abs(x-0.37) > 1e-6 {
		t.Errorf("argmin = %g, want 0.37", x)
	}
	if fx > 1e-10 {
		t.Errorf("min value = %g, want ~0", fx)
	}
}

func TestMinimizeGoldenEndpointMinimum(t *testing.T) {
	// Monotone increasing: minimum at left endpoint.
	x, _ := MinimizeGolden(func(x float64) float64 { return x }, 0.2, 0.9, 1e-10)
	if math.Abs(x-0.2) > 1e-6 {
		t.Errorf("argmin = %g, want 0.2", x)
	}
}

func TestMinimizeGoldenMultimodal(t *testing.T) {
	// Two valleys; the deeper one is near 0.8.
	f := func(x float64) float64 {
		return math.Min((x-0.2)*(x-0.2)+0.1, (x-0.8)*(x-0.8))
	}
	x, fx := MinimizeGolden(f, 0, 1, 1e-10)
	if math.Abs(x-0.8) > 1e-3 {
		t.Errorf("argmin = %g, want 0.8", x)
	}
	if fx > 1e-6 {
		t.Errorf("min = %g, want ~0", fx)
	}
}

func TestMinimizeGoldenNeverWorseThanEndpoints(t *testing.T) {
	prop := func(seed uint32) bool {
		a := float64(seed%97) / 100
		b := a + 0.1 + float64(seed%13)/20
		c1 := float64(seed%7) - 3
		c2 := float64(seed%11) - 5
		f := func(x float64) float64 { return math.Cos(c1*x) + c2*x*x }
		_, fx := MinimizeGolden(f, a, b, 1e-9)
		return fx <= f(a)+1e-12 && fx <= f(b)+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEqualWithin(t *testing.T) {
	tests := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},
		{1, 1.0000001, 1e-6, true},
		{1, 1.1, 1e-6, false},
		{1e12, 1e12 + 1, 1e-9, true}, // relative
		{0, 1e-12, 1e-9, true},       // absolute
	}
	for _, tt := range tests {
		if got := EqualWithin(tt.a, tt.b, tt.tol); got != tt.want {
			t.Errorf("EqualWithin(%g,%g,%g) = %v, want %v", tt.a, tt.b, tt.tol, got, tt.want)
		}
	}
}
