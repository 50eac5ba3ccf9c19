package funcs

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sampling"
)

// TestOutcomeLBAllocationFree: functions without a closed-form L* (RG over
// more than two instances, LinComb) integrate OutcomeLB hundreds of times
// per estimate; each evaluation must reuse the closure's scratch outcome
// and return exactly what coarsening through a fresh o.At(u) returns. The
// U* solver evaluates each family member's DataLB tens of thousands of
// times, through the kernel or a scratch pair, and it too must not
// allocate.
func TestOutcomeLBAllocationFree(t *testing.T) {
	s, err := sampling.NewTupleScheme([]float64{1, 0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{0.95, 0.15, 0.6}
	o := s.Sample(v, 0.1)
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
		dlb := DataLB(f, s, v)
		if allocs := testing.AllocsPerRun(100, func() { sink += dlb(0.3) + dlb(0.7) }); allocs != 0 {
			t.Errorf("%s: DataLB evaluation allocates %v times", f.Name(), allocs)
		}
		_ = sink
	}
}

// kernelCase draws one DataLB kernel input: thresholds τ, a data vector v
// and a seed u. The shape bits plant the edges the kernel's known test
// must get right: an entry exactly at its threshold u·τ_i, a zero entry,
// and a seed above 1, which DataLB clamps.
func kernelCase(rng *rand.Rand, r int, shape uint8) (tau, v []float64, u float64) {
	tau, v = make([]float64, r), make([]float64, r)
	u = 0.001 + 0.999*rng.Float64()
	if shape&4 != 0 {
		u = 1 + rng.Float64()
	}
	for i := range tau {
		tau[i] = 0.25 * math.Pow(16, rng.Float64())
		v[i] = tau[i] * 1.5 * rng.Float64()
	}
	at := math.Min(u, 1)
	if shape&1 != 0 {
		v[int(shape>>4)%r] = at * tau[int(shape>>4)%r]
	}
	if shape&2 != 0 {
		v[int(shape>>6)%r] = 0
	}
	return tau, v, u
}

// checkKernel fails unless DataLB(f, τ, v)(u) equals f.Lower(s.Sample(v,
// min(u, 1))) bit for bit.
func checkKernel(t testing.TB, f F, tau, v []float64, u float64) {
	t.Helper()
	s, err := sampling.NewTupleScheme(tau)
	if err != nil {
		t.Fatal(err)
	}
	got := DataLB(f, s, v)(u)
	want := f.Lower(s.Sample(v, math.Min(u, 1)))
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s τ=%v v=%v u=%v: kernel %.17g, Lower(Sample) %.17g", f.Name(), tau, v, u, got, want)
	}
}

// TestDataLBKernelMatchesSample: the served range functions evaluate
// DataLB without building an outcome; every value must be the one the
// outcome path gives, since U* estimates are pinned bit for bit.
func TestDataLBKernelMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, c := range []struct {
		f F
		r int
	}{{RG{P: 1}, 2}, {RG{P: 2}, 2}, {RG{P: 1}, 3}, {RG{P: 2.5}, 3}, {RGPlus{P: 1}, 2}, {RGPlus{P: 2}, 2}, {RGPlus{P: 0.5}, 2}} {
		if _, ok := c.f.(seedLower); !ok {
			t.Fatalf("%s has no DataLB kernel", c.f.Name())
		}
		for d := 0; d < 4000; d++ {
			tau, v, u := kernelCase(rng, c.r, uint8(rng.Intn(256)))
			checkKernel(t, c.f, tau, v, u)
		}
	}
}

// FuzzDataLBKernel drives the DataLB kernels against Lower of the sampled
// outcome from arbitrary seeds of kernelCase.
func FuzzDataLBKernel(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(1))  // entry 0 at its threshold
	f.Add(int64(3), uint8(19)) // entry 1 at its threshold, a zero entry
	f.Add(int64(4), uint8(4))  // seed above 1
	fns := []F{RG{P: 1}, RG{P: 2}, RGPlus{P: 1}, RGPlus{P: 2}}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		fn := fns[uint64(seed)%uint64(len(fns))]
		r := 2
		if _, ok := fn.(RG); ok && shape&8 != 0 {
			r = 3
		}
		tau, v, u := kernelCase(rng, r, shape)
		checkKernel(t, fn, tau, v, u)
	})
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestHTAllocationFree: the served ht path — Revealed, Lower and the
// RevealSeed bisection — allocates nothing per item, and its bisection
// over one scratch pair returns what bisecting over fresh o.At outcomes
// returns, bit for bit.
func TestHTAllocationFree(t *testing.T) {
	s, err := sampling.NewTupleScheme([]float64{0.8, 1.7})
	if err != nil {
		t.Fatal(err)
	}
	reference := func(f F, o sampling.TupleOutcome) float64 {
		if Revealed(f, o.At(1)) {
			return 1
		}
		lo, hi := o.Rho, 1.0
		for i := 0; i < 60; i++ {
			if mid := 0.5 * (lo + hi); Revealed(f, o.At(mid)) {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo
	}
	o := s.Sample([]float64{0.6, 0.2}, 0.05)
	for _, f := range []F{RG{P: 1}, RG{P: 2}, RGPlus{P: 1}} {
		if !Revealed(f, o) {
			t.Fatalf("%s: both entries sampled, f should be revealed", f.Name())
		}
		got, want := RevealSeed(f, o), reference(f, o)
		if math.Float64bits(got) != math.Float64bits(want) || got <= o.Rho || got >= 1 {
			t.Errorf("%s: RevealSeed = %.17g, reference bisection %.17g", f.Name(), got, want)
		}
		if raceEnabled {
			continue
		}
		var sink float64
		if allocs := testing.AllocsPerRun(100, func() { sink += EstimateHT(f, o) }); allocs != 0 {
			t.Errorf("%s: EstimateHT allocates %v times", f.Name(), allocs)
		}
		_ = sink
	}
}

// TestHTGoldenBits pins EstimateHT for rg p=1, rg p=2 and rgplus p=1 on
// 13 outcomes: 5 of served shape (thresholds of a k=256 bottom-k sample of
// 65,536 Zipf-weighted keys), zero entries, revealed items with f = 0,
// unrevealed items, and one revealed at seed 1. The bits were recorded
// while EstimateHT still tested revelation twice per item; evaluating
// Lower and Upper once must keep them.
func TestHTGoldenBits(t *testing.T) {
	served, served2 := []float64{1483.8967201847843, 1333.6612288718286}, []float64{1483.8967201847843, 1331.7230921617436}
	cases := []struct {
		tau, v []float64
		rho    float64
		bits   [3]uint64
	}{
		{served, []float64{4.580849946453173, 0}, 0.001355924080271964, [3]uint64{0, 0, 0}},
		{served2, []float64{1.646939273474853, 1.6491547463458638}, 0.001058360501372202, [3]uint64{0x3ffff037dc38eaa1, 0x3f721d3b87e5695f, 0}},
		{served2, []float64{0.39954429864534907, 0.39014374067431323}, 0.00011870168558036909, [3]uint64{0x404174eae23c2f90, 0x3fd501521b0773c6, 0x404174eae23c2f90}},
		{served2, []float64{1817.5405750604464, 1478.1746194997572}, 0.18415249664941435, [3]uint64{0x407535daf437cf30, 0x40fc1e140758bf1b, 0x407535daf437cf30}},
		{served2, []float64{4344.406259188686, 3046.338579295434}, 0.0664281999552242, [3]uint64{0x409448454de0c074, 0x4139b5f3b39af914, 0x409448454de0c074}},
		{[]float64{0.4745123773403104, 0.3273484644240401}, []float64{0.5699754360741991, 0.26156777174916424}, 0.6632535073668406, [3]uint64{0x3fd8b3b2e53de11f, 0x3fbe791bd514ae67, 0x3fd8b3b2e53de11f}},
		{[]float64{3.2498958489926126, 0.3641829487104346}, []float64{4.627620340529393, 0.44596458164743646}, 0.15094785020490126, [3]uint64{0x4010ba03f79e1cbe, 0x40317c7a8b7a516c, 0x4010ba03f79e1cbe}},
		{[]float64{0.8, 1.7}, []float64{0.6, 0.2}, 0.05, [3]uint64{0x400b333333333332, 0x3ff5c28f5c28f5c1, 0x400b333333333332}},
		{[]float64{0.8, 1.7}, []float64{0.6, 0.6}, 0.05, [3]uint64{0, 0, 0}}, // revealed, f = 0
		{[]float64{0.8, 1.7}, []float64{0, 0.6}, 0.05, [3]uint64{0, 0, 0}},   // rgplus revealed, f = 0
		{[]float64{0.8, 1.7}, []float64{0.6, 0.2}, 0.9, [3]uint64{0, 0, 0}},  // nothing known
		{[]float64{0.3, 0.2}, []float64{0.5, 0.4}, 0.5, [3]uint64{0x3fb9999999999998, 0x3f847ae147ae1478, 0x3fb9999999999998}},
		{[]float64{0.5, 1.2, 2}, []float64{0.3, 0.9, 0}, 0.1, [3]uint64{0, 0, 0}},
	}
	for i, c := range cases {
		s, err := sampling.NewTupleScheme(c.tau)
		if err != nil {
			t.Fatal(err)
		}
		o := s.Sample(c.v, c.rho)
		for j, f := range []F{RG{P: 1}, RG{P: 2}, RGPlus{P: 1}} {
			if got := EstimateHT(f, o); math.Float64bits(got) != c.bits[j] {
				t.Errorf("case %d %s: HT = %.17g (%#x), want %.17g (%#x)", i, f.Name(), got, math.Float64bits(got), math.Float64frombits(c.bits[j]), c.bits[j])
			}
		}
	}
}

// TestRevealSeedConcurrent: RevealSeed's scratch pairs come from a shared
// pool, and the server evaluates ht on many requests at once; each call
// must still see only its own pair (run under -race).
func TestRevealSeedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var outs []sampling.TupleOutcome
	for len(outs) < 64 {
		r := 2 + len(outs)%2
		tau, v, _ := kernelCase(rng, r, 0)
		s, err := sampling.NewTupleScheme(tau)
		if err != nil {
			t.Fatal(err)
		}
		if o := s.Sample(v, 0.05+0.5*rng.Float64()); Revealed(RG{P: 1}, o) {
			outs = append(outs, o)
		}
	}
	want := make([]float64, len(outs))
	for i, o := range outs {
		want[i] = RevealSeed(RG{P: 1}, o)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, o := range outs {
					if got := RevealSeed(RG{P: 1}, o); got != want[i] {
						t.Errorf("outcome %d: concurrent RevealSeed %v, sequential %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestLStarGoldenBits pins RG's closed-form L* and U* for p=1 and p=2 on
// 18 two-entry outcomes: both entries known with the larger one first
// (used as it is) and second (swapped before RGPlus's closed form runs),
// one entry known on either side, none known, equal values, scaled
// values above the threshold, and served-shape thresholds, each under
// equal and unequal τ. U* has a closed form only under a common τ and
// must decline the others.
func TestLStarGoldenBits(t *testing.T) {
	eq, served2, uneq := []float64{2, 2}, []float64{1483.8967201847843, 1331.7230921617436}, []float64{0.8, 1.7}
	cases := []struct {
		tau, v []float64
		rho    float64
		bits   [4]uint64 // L* p=1, L* p=2, U* p=1, U* p=2
	}{
		{eq, []float64{1.5, 0.5}, 0.1, [4]uint64{0x400193ea7aad030a, 0x4004bbbf7007091c, 0x0, 0x0}},
		{eq, []float64{0.5, 1.5}, 0.1, [4]uint64{0x400193ea7aad030a, 0x4004bbbf7007091c, 0x0, 0x0}},
		{eq, []float64{1.5, 0.1}, 0.3, [4]uint64{0x3ffd5240f0e0e078, 0x3ffe5d29390907cf, 0x4000000000000000, 0x400ccccccccccccd}},
		{eq, []float64{0.1, 1.5}, 0.3, [4]uint64{0x3ffd5240f0e0e078, 0x3ffe5d29390907cf, 0x4000000000000000, 0x400ccccccccccccd}},
		{eq, []float64{0.1, 0.2}, 0.5, [4]uint64{0x0, 0x0, 0x0, 0x0}},
		{eq, []float64{3, 0.4}, 0.1, [4]uint64{0x4010e020fbf6c69a, 0x402bd39627178702, 0x3ff0000000000000, 0x0}},
		{eq, []float64{0.4, 3}, 0.1, [4]uint64{0x4010e020fbf6c69a, 0x402bd39627178702, 0x3ff0000000000000, 0x0}},
		{eq, []float64{0.4, 3}, 0.5, [4]uint64{0x400317217f7d1cf8, 0x401545647e7756e6, 0x4008000000000000, 0x4020000000000000}},
		{eq, []float64{1, 1}, 0.2, [4]uint64{0x0, 0x0, 0x0, 0x0}},
		{served2, []float64{1817.5405750604464, 1478.1746194997572}, 0.18415249664941435, [4]uint64{0x407535daf437cf31, 0x40fc1e140758bf1f, 0x0, 0x0}},
		{served2, []float64{1478.1746194997572, 1817.5405750604464}, 0.18415249664941435, [4]uint64{0x40753608428c8639, 0x40fc1e8b793e0155, 0x0, 0x0}},
		{served2, []float64{4344.406259188686, 0}, 0.0664281999552242, [4]uint64{0x40b9dfd4096fbad0, 0x4181b5dee6e4cd3f, 0x0, 0x0}},
		{served2, []float64{0, 4344.406259188686}, 0.0664281999552242, [4]uint64{0x40bae44b343ef2ff, 0x41829cc74db43397, 0x0, 0x0}},
		{uneq, []float64{0.6, 0.2}, 0.05, [4]uint64{0x3ffde1db6a261ebf, 0x3fec328979a32b19, 0x0, 0x0}},
		{uneq, []float64{0.2, 0.6}, 0.05, [4]uint64{0x3ff2d05f90f2af30, 0x3fdf0cef76180742, 0x0, 0x0}},
		{uneq, []float64{0.02, 0.6}, 0.05, [4]uint64{0x4003b516f871f677, 0x3ffc6339a8b7e168, 0x0, 0x0}},
		{uneq, []float64{0.6, 0.05}, 0.05, [4]uint64{0x400a940403255ef5, 0x4001e2c553a5ad59, 0x0, 0x0}},
		{[]float64{3.2498958489926126, 0.3641829487104346}, []float64{0.44596458164743646, 4.627620340529393}, 0.15094785020490126, [4]uint64{0x401e173d748f6476, 0x40446b09a7a6a4b9, 0x0, 0x0}},
	}
	for i, c := range cases {
		s, err := sampling.NewTupleScheme(c.tau)
		if err != nil {
			t.Fatal(err)
		}
		o := s.Sample(c.v, c.rho)
		var got [4]uint64
		for j, f := range []RG{{P: 1}, {P: 2}} {
			l, ok := f.LStarClosed(o)
			if !ok {
				t.Errorf("case %d %s: L* closed form declined a two-entry outcome", i, f.Name())
			}
			got[j] = math.Float64bits(l)
			u, ok := f.UStarClosed(o)
			if common := c.tau[0] == c.tau[1]; ok != common {
				t.Errorf("case %d %s: U* closed form ok = %v under common τ %v", i, f.Name(), ok, common)
			}
			got[2+j] = math.Float64bits(u)
		}
		if got != c.bits {
			t.Errorf("case %d: bits %#x, want %#x", i, got, c.bits)
		}
	}
}

// TestRGClosedFormsAllocationFree: the served L* sum runs RG's closed form
// on every exceptional two-entry outcome, and about half of them need the
// larger entry swapped first; neither closed form may allocate for it.
func TestRGClosedFormsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s, err := sampling.NewTupleScheme([]float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []sampling.TupleOutcome{s.Sample([]float64{0.5, 1.5}, 0.1), s.Sample([]float64{0.1, 1.5}, 0.3)} {
		var sink float64
		if allocs := testing.AllocsPerRun(100, func() {
			l, _ := RG{P: 1}.LStarClosed(o)
			u, _ := RG{P: 2}.UStarClosed(o)
			sink += l + u
		}); allocs != 0 {
			t.Errorf("known %v: swapped closed forms allocate %v times", o.Known, allocs)
		}
		_ = sink
	}
}
