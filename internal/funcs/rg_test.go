package funcs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/sampling"
)

func mustRG(t *testing.T, p float64) RG {
	t.Helper()
	f, err := NewRG(p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRGValue(t *testing.T) {
	f := mustRG(t, 1)
	tests := []struct {
		v    []float64
		want float64
	}{
		{[]float64{0.6, 0.2}, 0.4},
		{[]float64{0.2, 0.6}, 0.4}, // symmetric
		{[]float64{0.95, 0.15, 0.25}, 0.8},
		{[]float64{0.5}, 0},
		{[]float64{0.3, 0.3, 0.3}, 0},
	}
	for _, tt := range tests {
		if got := f.Value(tt.v); !numeric.EqualWithin(got, tt.want, 1e-12) {
			t.Errorf("RG1(%v) = %g, want %g", tt.v, got, tt.want)
		}
	}
	f2 := mustRG(t, 2)
	if got := f2.Value([]float64{0.6, 0.2}); !numeric.EqualWithin(got, 0.16, 1e-12) {
		t.Errorf("RG2 = %g, want 0.16", got)
	}
}

func TestRGLowerThreeInstances(t *testing.T) {
	// v = (0.95, 0.15, 0.25) under PPS τ*=1.
	s := sampling.UniformTuple(3)
	f := mustRG(t, 1)
	tests := []struct {
		u    float64
		want float64
	}{
		{0.10, 0.8},  // all known: 0.95 − 0.15
		{0.20, 0.75}, // 0.95, 0.25 known; entry 2 bounded by 0.20 < 0.25
		{0.30, 0.65}, // only 0.95 known; min bound 0.30
		{0.96, 0},    // nothing known
	}
	for _, tt := range tests {
		got := f.Lower(s.Sample([]float64{0.95, 0.15, 0.25}, tt.u))
		if !numeric.EqualWithin(got, tt.want, 1e-12) {
			t.Errorf("u=%g: Lower = %g, want %g", tt.u, got, tt.want)
		}
	}
}

func TestRGUpperCases(t *testing.T) {
	s := sampling.UniformTuple(2)
	f := mustRG(t, 1)
	// Both known: revealed.
	o := s.Sample([]float64{0.6, 0.2}, 0.1)
	if got := f.Upper(o); !numeric.EqualWithin(got, 0.4, 1e-12) {
		t.Errorf("both known Upper = %g, want 0.4", got)
	}
	// Only larger known at u=0.4: sup range = 0.6 (other entry → 0).
	o = s.Sample([]float64{0.6, 0.2}, 0.4)
	if got := f.Upper(o); !numeric.EqualWithin(got, 0.6, 1e-9) {
		t.Errorf("one known Upper = %g, want 0.6", got)
	}
	// Nothing known at u=0.7: sup range → 0.7 (one high, one low).
	o = s.Sample([]float64{0.6, 0.2}, 0.7)
	if got := f.Upper(o); !numeric.EqualWithin(got, 0.7, 1e-9) {
		t.Errorf("none known Upper = %g, want 0.7", got)
	}
	// Single-entry tuple: range is always 0.
	s1 := sampling.UniformTuple(1)
	if got := f.Upper(s1.Sample([]float64{0.5}, 0.7)); got != 0 {
		t.Errorf("single entry Upper = %g, want 0", got)
	}
}

func TestRGLowerUpperBracketProperty(t *testing.T) {
	s := sampling.UniformTuple(3)
	f := mustRG(t, 2)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		u := rng.Float64()*0.999 + 0.001
		o := s.Sample(v, u)
		val := f.Value(v)
		return f.Lower(o) <= val+1e-9 && f.Upper(o) >= val-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRGClosedFormMatchesRGPlusSorted(t *testing.T) {
	s := sampling.UniformTuple(2)
	for _, p := range []float64{1, 2} {
		f := mustRG(t, p)
		// Symmetric: data with the larger value in either slot.
		for _, v := range [][]float64{{0.6, 0.2}, {0.2, 0.6}, {0.8, 0.8}} {
			for _, u := range []float64{0.1, 0.3, 0.5, 0.7, 1} {
				o := s.Sample(v, u)
				closed, ok := f.LStarClosed(o)
				if !ok {
					t.Fatal("closed form should apply")
				}
				generic := core.LStarAt(OutcomeLB(f, o), o.Rho)
				if !numeric.EqualWithin(closed, generic, 1e-5) {
					t.Errorf("p=%g v=%v u=%g: closed %g vs generic %g", p, v, u, closed, generic)
				}
			}
		}
	}
}

func TestRGLStarUnbiasedTwoAndThreeInstances(t *testing.T) {
	for _, tc := range []struct {
		r int
		v []float64
	}{
		{2, []float64{0.6, 0.2}},
		{2, []float64{0.2, 0.6}},
		{3, []float64{0.95, 0.15, 0.25}},
	} {
		s := sampling.UniformTuple(tc.r)
		f := mustRG(t, 1)
		est := func(u float64) float64 { return EstimateLStar(f, s.Sample(tc.v, u)) }
		got, err := numeric.IntegrateToZero(est, 1, numeric.QuadOptions{AbsTol: 1e-9})
		if err != nil {
			t.Fatalf("v=%v: %v", tc.v, err)
		}
		if want := f.Value(tc.v); !numeric.EqualWithin(got, want, 2e-3) {
			t.Errorf("v=%v: E[L*] = %g, want %g", tc.v, got, want)
		}
	}
}

func TestRGFamilyIncludesExtremes(t *testing.T) {
	s := sampling.UniformTuple(2)
	f := mustRG(t, 1)
	o := s.Sample([]float64{0.6, 0.2}, 0.4) // entry 2 unknown
	fam := f.Family(o)
	if len(fam) == 0 {
		t.Fatal("family empty")
	}
	foundLo, foundHi := false, false
	for _, z := range fam {
		if z[0] != 0.6 {
			t.Fatalf("family member %v breaks the known entry", z)
		}
		if z[1] == 0 {
			foundLo = true
		}
		if z[1] > 0.39 {
			foundHi = true
		}
	}
	if !foundLo || !foundHi {
		t.Errorf("family misses extremes: lo=%v hi=%v", foundLo, foundHi)
	}
}

func TestRGFamilyCapRespected(t *testing.T) {
	s := sampling.UniformTuple(6)
	f := mustRG(t, 1)
	o := s.Sample([]float64{0.9, 0.01, 0.01, 0.01, 0.01, 0.01}, 0.5) // 5 unknowns
	fam := f.Family(o)
	if len(fam) == 0 || len(fam) > 72 {
		t.Errorf("family size %d outside (0, 72]", len(fam))
	}
}

// TestUStarGoldenBitsUnequalTau pins served U* estimates. A bottom-k
// sketch gives each instance its own threshold, UStarClosed declines
// unequal ones, and the backward solver runs. The 28 outcomes here have
// unequal thresholds: 20 drawn at random (τ log-uniform in [0.25, 4],
// scaled weights up to 1.5, a sixth of second entries 0), 7 of served
// shape and 1 on which the mass clamp binds. The bits were recorded from the solver as it stood before
// DataLB gained its kernel and the solver built each point's family once;
// any later speed-up must keep them.
func TestUStarGoldenBitsUnequalTau(t *testing.T) {
	cases := []struct {
		f      F
		tau, v []float64
		rho    float64
		bits   uint64
	}{
		{RG{P: 1}, []float64{0.4745123773403104, 0.3273484644240401}, []float64{0.5699754360741991, 0.26156777174916424}, 0.6632535073668406, 0x3fce4e290074915d},      // 0.23676
		{RG{P: 1}, []float64{1.470001774130942, 2.8220398951528485}, []float64{0.5455830618404555, 2.056202485438584}, 0.5862684990760584, 0x40066d09a9f60955},         // 2.80324
		{RG{P: 1}, []float64{0.5051859841066121, 0.49454458172075694}, []float64{0.6370587200005641, 0.38316355516823125}, 0.7572232119657011, 0x3fc1d10a95451ee6},     // 0.139192
		{RG{P: 1}, []float64{1.2063516797726368, 0.29928057438064304}, []float64{0.6429469820384136, 0.29308093413445846}, 0.6013962779050203, 0x0},                    // 0
		{RG{P: 1}, []float64{0.47115546565617894, 0.4024796698443793}, []float64{0.3285686899926884, 0.20985252108389404}, 0.658763424318952, 0x3fddebd21e690bf8},      // 0.467518
		{RG{P: 1}, []float64{0.9223816140623803, 0.5156821870943877}, []float64{0.17815516697041678, 0.45795255776218025}, 0.5015258571046922, 0x0},                    // 0
		{RG{P: 1}, []float64{0.7440411439758299, 0.46484674049552055}, []float64{0.9760285259355296, 0.15846524817555674}, 0.8371471312250864, 0x3fef239ee53d5711},     // 0.973098
		{RG{P: 2}, []float64{0.35808988804529107, 0.8875907632552925}, []float64{0.2685823917629479, 1.1030824483993757}, 0.21576858575606783, 0x3fe00b1bdc0d575d},     // 0.501356
		{RG{P: 2}, []float64{0.9861120760194347, 0.6808169420194276}, []float64{1.3636404257172934, 0.6285119542953745}, 0.9741048666675477, 0x3ffdbf6accb7cfee},       // 1.85923
		{RG{P: 2}, []float64{0.44278690978807816, 1.9243508859755503}, []float64{0.4078658402479098, 0.2985129220305434}, 0.3751068886520861, 0x0},                     // 0
		{RG{P: 2}, []float64{3.2498958489926126, 0.3641829487104346}, []float64{4.627620340529393, 0.44596458164743646}, 0.15094785020490126, 0x4030e64f72114a10},      // 16.8996
		{RG{P: 2}, []float64{0.40667781603761394, 3.9097851813806574}, []float64{0.5515327774794629, 1.9311486278963885}, 0.3475696848331706, 0x400e66faad56aeeb},      // 3.80028
		{RG{P: 2}, []float64{2.6424614287486006, 0.251127686282914}, []float64{3.4656089975180877, 0.2535352986298074}, 0.30961748785942467, 0x402434c6f491e027},       // 10.1031
		{RG{P: 2}, []float64{0.42178223526303643, 3.5205118294363054}, []float64{0.3010457639409631, 0}, 0.16885436020404393, 0x0},                                     // 0
		{RGPlus{P: 1}, []float64{1.1700118905596744, 0.5266603584367731}, []float64{1.4323867391625014, 0.15067102426200574}, 0.11175407591223403, 0x3feb979ca29eff3f}, // 0.862257
		{RGPlus{P: 1}, []float64{0.9935671894541553, 0.8968077990248735}, []float64{0.7850923780239559, 0.6064523306977964}, 0.3505625432515015, 0x3fb63ea0c90a4377},   // 0.0868931
		{RGPlus{P: 1}, []float64{3.754887229006638, 1.123905175339022}, []float64{0.1007125118647947, 0.6602352160360393}, 0.4675079820462003, 0x0},                    // 0
		{RGPlus{P: 1}, []float64{0.4268795116043439, 0.6338156254599515}, []float64{0.07508904767828499, 0.5750008798441347}, 0.5912827742161918, 0x0},                 // 0
		{RGPlus{P: 1}, []float64{0.408534405343878, 0.44973233442227833}, []float64{0.4186388743436917, 0.2618456645402439}, 0.6945575337728616, 0x3fdcc86a211308f0},   // 0.449732
		{RGPlus{P: 1}, []float64{2.0061340453470686, 0.3079965457339237}, []float64{0.9896078139290206, 0.33226277115727604}, 0.5002089989942933, 0x0},                 // 0
		// Served shape: thresholds and values of a k=256 bottom-k sample
		// of 65,536 Zipf-weighted keys; small seeds sweep most of the grid.
		{RG{P: 1}, []float64{1483.8967201847843, 1333.6612288718286}, []float64{4.580849946453173, 0}, 0.001355924080271964, 0x4096d85691d33352},
		{RG{P: 2}, []float64{1483.8967201847843, 1333.6612288718286}, []float64{4.580849946453173, 0}, 0.001355924080271964, 0x40bce32b14a8ff73},
		{RGPlus{P: 1}, []float64{1483.8967201847843, 1333.6612288718286}, []float64{4.580849946453173, 0}, 0.001355924080271964, 0x4096d85691d33352},
		{RG{P: 1}, []float64{1483.8967201847843, 1331.7230921617436}, []float64{1.646939273474853, 1.6491547463458638}, 0.001058360501372202, 0x3fff96d71ff078e9},
		{RG{P: 2}, []float64{1483.8967201847843, 1331.7230921617436}, []float64{0.39954429864534907, 0.39014374067431323}, 0.00011870168558036909, 0x3fd47fd215ef65a5},
		{RGPlus{P: 1}, []float64{1483.8967201847843, 1331.7230921617436}, []float64{1817.5405750604464, 1478.1746194997572}, 0.18415249664941435, 0x407491c313d21fa6},
		{RG{P: 2}, []float64{1483.8967201847843, 1331.7230921617436}, []float64{4344.406259188686, 3046.338579295434}, 0.0664281999552242, 0x41387af00e6dbebb},
		// Scaled entry 1 above its threshold: the solver's constraint-(7)
		// clamp binds between grid points.
		{RGPlus{P: 1}, []float64{0.33057620611702626, 0.6026944320470461}, []float64{0.42903194146467005, 0.1800755116669475}, 0.18526972633926464, 0x3f5fe47140713361},
	}
	nonzero := 0
	for i, c := range cases {
		s, err := sampling.NewTupleScheme(c.tau)
		if err != nil {
			t.Fatal(err)
		}
		o := s.Sample(c.v, c.rho)
		if _, ok := c.f.(UStarClosedForm).UStarClosed(o); ok {
			t.Fatalf("case %d: the closed form accepted an unequal-τ outcome", i)
		}
		got := EstimateUStar(c.f, o, core.DefaultGrid())
		if math.Float64bits(got) != c.bits {
			t.Errorf("case %d %s τ=%v v=%v ρ=%v: U* = %.17g (%#x), want %.17g (%#x)",
				i, c.f.Name(), c.tau, c.v, c.rho, got, math.Float64bits(got), math.Float64frombits(c.bits), c.bits)
		}
		if got != 0 {
			nonzero++
		}
	}
	if nonzero < len(cases)/2 {
		t.Errorf("only %d of %d pinned estimates are nonzero", nonzero, len(cases))
	}
}

// BenchmarkUStarUnequalTau is one served-shape U* estimate: rg p=1 on a
// two-instance outcome with unequal thresholds, one entry sampled, so the
// backward solver sweeps a four-member family at every grid point.
func BenchmarkUStarUnequalTau(b *testing.B) {
	s, err := sampling.NewTupleScheme([]float64{1483.8967201847843, 1333.6612288718286})
	if err != nil {
		b.Fatal(err)
	}
	o := s.Sample([]float64{1200, 0}, 0.7)
	f, g := RG{P: 1}, core.DefaultGrid()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EstimateUStar(f, o, g)
	}
}
