package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100, -7}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var varc float64
	for _, x := range xs {
		varc += (x - mean) * (x - mean)
	}
	varc /= float64(len(xs))
	if math.Abs(w.Mean()-mean) > 1e-12 {
		t.Errorf("mean = %g, want %g", w.Mean(), mean)
	}
	if math.Abs(w.Var()-varc) > 1e-9 {
		t.Errorf("var = %g, want %g", w.Var(), varc)
	}
	if w.N() != len(xs) {
		t.Errorf("N = %d, want %d", w.N(), len(xs))
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.StdErr() != 0 {
		t.Error("empty accumulator should be all zeros")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Var() != 0 {
		t.Error("single observation: mean 5, var 0")
	}
}

func TestWelfordShiftInvarianceProperty(t *testing.T) {
	// Variance is shift-invariant; mean shifts by the offset.
	prop := func(seed int64, offBits uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		off := float64(offBits)
		var a, b Welford
		for i := 0; i < 50; i++ {
			x := rng.NormFloat64()
			a.Add(x)
			b.Add(x + off)
		}
		return math.Abs(a.Var()-b.Var()) < 1e-6 && math.Abs(b.Mean()-a.Mean()-off) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestErrorMeter(t *testing.T) {
	var m ErrorMeter
	m.Add(11, 10)
	m.Add(9, 10)
	if m.N() != 2 {
		t.Fatalf("N = %d, want 2", m.N())
	}
	if got := m.RMSE(); math.Abs(got-1) > 1e-12 {
		t.Errorf("RMSE = %g, want 1", got)
	}
	if got := m.NRMSE(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("NRMSE = %g, want 0.1", got)
	}
	if got := m.Bias(); math.Abs(got) > 1e-12 {
		t.Errorf("Bias = %g, want 0", got)
	}
}

func TestErrorMeterZeroTruth(t *testing.T) {
	var m ErrorMeter
	m.Add(1, 0)
	if !math.IsNaN(m.NRMSE()) || !math.IsNaN(m.RelBias()) {
		t.Error("zero truth should give NaN normalized metrics")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g, want 0", got)
	}
}
