package numeric

import "math"

// Kahan is a compensated (Kahan–Neumaier) accumulator. The zero value is an
// empty sum ready for use.
type Kahan struct {
	sum float64
	c   float64
}

// Add accumulates x.
func (k *Kahan) Add(x float64) {
	t := k.sum + x
	if math.Abs(k.sum) >= math.Abs(x) {
		k.c += (k.sum - t) + x
	} else {
		k.c += (x - t) + k.sum
	}
	k.sum = t
}

// Sum returns the compensated total.
func (k *Kahan) Sum() float64 { return k.sum + k.c }

// Sum returns the compensated sum of xs.
func Sum(xs []float64) float64 {
	var k Kahan
	for _, x := range xs {
		k.Add(x)
	}
	return k.Sum()
}

// EqualWithin reports whether a and b agree to within tol absolutely or
// relatively (whichever is more permissive).
func EqualWithin(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// Linspace returns n evenly spaced points from a to b inclusive. n must be
// at least 2.
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		panic("numeric: Linspace needs n >= 2")
	}
	xs := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range xs {
		xs[i] = a + float64(i)*step
	}
	xs[n-1] = b
	return xs
}

// Geomspace returns n geometrically spaced points from a to b inclusive,
// requiring 0 < a < b and n >= 2. It is the natural grid for seed values
// because estimator mass concentrates near u = 0.
func Geomspace(a, b float64, n int) []float64 {
	if n < 2 || a <= 0 || b <= a {
		panic("numeric: Geomspace needs n >= 2 and 0 < a < b")
	}
	xs := make([]float64, n)
	la, lb := math.Log(a), math.Log(b)
	step := (lb - la) / float64(n-1)
	for i := range xs {
		xs[i] = math.Exp(la + float64(i)*step)
	}
	xs[0], xs[n-1] = a, b
	return xs
}

// MinimizeGolden locates a minimizer of f on [a, b] by golden-section search.
// f need not be smooth; for unimodal f the result is within tol of the true
// minimizer, and for general f it returns the best point seen (including the
// endpoints and a coarse pre-scan), which is what the U* solver needs.
func MinimizeGolden(f Func1, a, b, tol float64) (x, fx float64) {
	const invPhi = 0.6180339887498949
	if b < a {
		a, b = b, a
	}
	if tol <= 0 {
		tol = 1e-10
	}
	// Coarse pre-scan to pick a bracket; protects against multimodal f.
	const scan = 24
	bestX, bestF := a, f(a)
	if fb := f(b); fb < bestF {
		bestX, bestF = b, fb
	}
	lo, hi := a, b
	step := (b - a) / scan
	if step > 0 {
		for i := 1; i < scan; i++ {
			x := a + float64(i)*step
			if fx := f(x); fx < bestF {
				bestX, bestF = x, fx
			}
		}
		lo = math.Max(a, bestX-step)
		hi = math.Min(b, bestX+step)
	}
	c := hi - invPhi*(hi-lo)
	d := lo + invPhi*(hi-lo)
	fc, fd := f(c), f(d)
	for hi-lo > tol {
		if fc < fd {
			hi, d, fd = d, c, fc
			c = hi - invPhi*(hi-lo)
			fc = f(c)
		} else {
			lo, c, fc = c, d, fd
			d = lo + invPhi*(hi-lo)
			fd = f(d)
		}
	}
	x = 0.5 * (lo + hi)
	fx = f(x)
	if fc < fx {
		x, fx = c, fc
	}
	if fd < fx {
		x, fx = d, fd
	}
	if bestF < fx {
		x, fx = bestX, bestF
	}
	return x, fx
}
