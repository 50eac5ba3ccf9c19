// Package stats provides the small statistics toolkit used by the
// experiment harness: streaming moments and error metrics.
package stats

import "math"

// Welford is a streaming mean/variance accumulator (numerically stable).
// The zero value is ready for use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add accumulates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance (0 when fewer than 2 observations).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.Std() / math.Sqrt(float64(w.n))
}

// ErrorMeter accumulates estimate/truth pairs and reports normalized error
// metrics, the workhorse of the Section 7 experiment reproductions.
type ErrorMeter struct {
	sqErr Welford
	truth Welford
	bias  Welford
}

// Add records one (estimate, truth) pair.
func (m *ErrorMeter) Add(estimate, truth float64) {
	m.sqErr.Add((estimate - truth) * (estimate - truth))
	m.truth.Add(truth)
	m.bias.Add(estimate - truth)
}

// N returns the number of pairs.
func (m *ErrorMeter) N() int { return m.sqErr.N() }

// RMSE returns the root-mean-squared error.
func (m *ErrorMeter) RMSE() float64 { return math.Sqrt(m.sqErr.Mean()) }

// NRMSE returns RMSE normalized by the mean truth (NaN when truth ≈ 0).
func (m *ErrorMeter) NRMSE() float64 {
	if m.truth.Mean() == 0 {
		return math.NaN()
	}
	return m.RMSE() / math.Abs(m.truth.Mean())
}

// Bias returns the mean signed error (≈0 for unbiased estimators).
func (m *ErrorMeter) Bias() float64 { return m.bias.Mean() }

// RelBias returns Bias normalized by mean truth.
func (m *ErrorMeter) RelBias() float64 {
	if m.truth.Mean() == 0 {
		return math.NaN()
	}
	return m.Bias() / math.Abs(m.truth.Mean())
}

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Mean()
}
