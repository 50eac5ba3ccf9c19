package sampling

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSeedHashRangeAndDeterminism(t *testing.T) {
	h := NewSeedHash(42)
	seen := make(map[float64]int)
	for key := uint64(0); key < 20000; key++ {
		u := h.U(key)
		if u <= 0 || u > 1 {
			t.Fatalf("seed %g outside (0,1]", u)
		}
		seen[u]++
	}
	if len(seen) < 19990 {
		t.Errorf("too many seed collisions: %d distinct of 20000", len(seen))
	}
	if h.U(7) != h.U(7) {
		t.Error("seed hash must be deterministic")
	}
	if NewSeedHash(1).U(7) == NewSeedHash(2).U(7) {
		t.Error("different salts should give different seeds (w.h.p.)")
	}
}

func TestSeedHashUniformity(t *testing.T) {
	// Mean should be ~1/2 and variance ~1/12 for uniform seeds.
	h := NewSeedHash(7)
	const n = 100000
	var sum, sumsq float64
	for key := uint64(0); key < n; key++ {
		u := h.U(key)
		sum += u
		sumsq += u * u
	}
	mean := sum / n
	varc := sumsq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("seed mean = %g, want ≈ 0.5", mean)
	}
	if math.Abs(varc-1.0/12) > 0.005 {
		t.Errorf("seed variance = %g, want ≈ 1/12", varc)
	}
}

func TestSeedHashStringAgreesWithItself(t *testing.T) {
	h := NewSeedHash(3)
	if h.UString("alpha") != h.UString("alpha") {
		t.Error("string seeds must be deterministic")
	}
	if h.UString("alpha") == h.UString("beta") {
		t.Error("distinct strings should get distinct seeds (w.h.p.)")
	}
}

func TestPPSInclusionProbability(t *testing.T) {
	// Empirical inclusion frequency over many items ≈ min(1, w/τ).
	p, err := NewPPS(2, NewSeedHash(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{0.2, 0.5, 1, 1.9, 2, 3} {
		const n = 60000
		count := 0
		for key := uint64(0); key < n; key++ {
			if p.Includes(key, w) {
				count++
			}
		}
		got := float64(count) / n
		want := math.Min(1, w/2)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("w=%g: empirical inclusion %g, want %g", w, got, want)
		}
	}
}

func TestPPSZeroWeightNeverSampled(t *testing.T) {
	p, err := NewPPS(1, NewSeedHash(5))
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 1000; key++ {
		if p.Includes(key, 0) {
			t.Fatal("zero-weight item sampled")
		}
	}
}

func TestPPSValidation(t *testing.T) {
	for _, tau := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewPPS(tau, NewSeedHash(0)); err == nil {
			t.Errorf("NewPPS(%g) should fail", tau)
		}
	}
}

func TestCoordinationIdenticalInstancesIdenticalSamples(t *testing.T) {
	// The defining property of coordination: two instances with identical
	// weights produce identical samples because seeds are shared.
	p, err := NewPPS(1, NewSeedHash(99))
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, 500)
	for i := range items {
		items[i] = Item{Key: uint64(i), Weight: float64(i%10+1) / 10}
	}
	a := p.Sample(items)
	b := p.Sample(items)
	if len(a) != len(b) {
		t.Fatalf("coordinated samples differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("coordinated samples differ at %d", i)
		}
	}
}

func TestCoordinationLSHProperty(t *testing.T) {
	// Samples of similar instances overlap more than samples of dissimilar
	// ones (the locality-sensitive property motivating coordination).
	hash := NewSeedHash(123)
	p, err := NewPPS(4, hash)
	if err != nil {
		t.Fatal(err)
	}
	base := make([]Item, 2000)
	for i := range base {
		base[i] = Item{Key: uint64(i), Weight: 1 + float64(i%7)}
	}
	perturb := func(factor float64, every int) []Item {
		out := make([]Item, len(base))
		copy(out, base)
		for i := every - 1; i < len(out); i += every {
			out[i].Weight *= factor
		}
		return out
	}
	similar := perturb(1.05, 3) // 1/3 of items changed by 5%
	dissimilar := perturb(4, 2) // 1/2 of items changed 4-fold
	overlap := func(a, b []Item) float64 {
		in := make(map[uint64]bool, len(a))
		for _, it := range a {
			in[it.Key] = true
		}
		common := 0
		for _, it := range b {
			if in[it.Key] {
				common++
			}
		}
		union := len(a) + len(b) - common
		if union == 0 {
			return 1
		}
		return float64(common) / float64(union)
	}
	sBase := p.Sample(base)
	jSim := overlap(sBase, p.Sample(similar))
	jDis := overlap(sBase, p.Sample(dissimilar))
	if jSim <= jDis {
		t.Errorf("similarity of samples should track data similarity: similar=%g dissimilar=%g", jSim, jDis)
	}
	if jSim < 0.8 {
		t.Errorf("5%% perturbation should keep samples mostly identical, got Jaccard %g", jSim)
	}
}

func TestBottomKExactSize(t *testing.T) {
	for _, kind := range []RankKind{RankPriority, RankExponential, RankUniform} {
		b, err := NewBottomK(16, kind, NewSeedHash(6))
		if err != nil {
			t.Fatal(err)
		}
		items := make([]Item, 300)
		for i := range items {
			items[i] = Item{Key: uint64(i), Weight: float64(i + 1)}
		}
		sample, thr := b.Sample(items)
		if len(sample) != 16 {
			t.Errorf("kind %d: sample size %d, want 16", kind, len(sample))
		}
		if math.IsInf(thr, 1) {
			t.Errorf("kind %d: threshold should be finite with %d items", kind, len(items))
		}
		for i := 1; i < len(sample); i++ {
			if sample[i].Rank < sample[i-1].Rank {
				t.Fatalf("kind %d: sample not sorted by rank", kind)
			}
		}
		for _, s := range sample {
			if s.Rank >= thr {
				t.Errorf("kind %d: sampled rank %g ≥ threshold %g", kind, s.Rank, thr)
			}
		}
	}
}

func TestBottomKFewerItemsThanK(t *testing.T) {
	b, err := NewBottomK(10, RankPriority, NewSeedHash(6))
	if err != nil {
		t.Fatal(err)
	}
	items := []Item{{1, 1}, {2, 2}, {3, 0}} // zero weight excluded
	sample, thr := b.Sample(items)
	if len(sample) != 2 {
		t.Errorf("sample size %d, want 2", len(sample))
	}
	if !math.IsInf(thr, 1) {
		t.Errorf("threshold %g, want +Inf", thr)
	}
}

func TestBottomKWeightBiasesInclusion(t *testing.T) {
	// Heavier items should be sampled more often under priority ranks.
	b, err := NewBottomK(50, RankPriority, NewSeedHash(17))
	if err != nil {
		t.Fatal(err)
	}
	heavyHits, lightHits := 0, 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		b.Hash = NewSeedHash(uint64(trial))
		items := make([]Item, 1000)
		for i := range items {
			w := 1.0
			if i < 100 {
				w = 20
			}
			items[i] = Item{Key: uint64(i), Weight: w}
		}
		sample, _ := b.Sample(items)
		for _, s := range sample {
			if s.Key < 100 {
				heavyHits++
			} else {
				lightHits++
			}
		}
	}
	if heavyHits <= lightHits {
		t.Errorf("heavy items under-sampled: heavy=%d light=%d", heavyHits, lightHits)
	}
}

func TestBottomKInclusionProbFormulas(t *testing.T) {
	b := BottomK{K: 4, Kind: RankExponential}
	if got, want := b.InclusionProb(2, 0.5), 1-math.Exp(-1); math.Abs(got-want) > 1e-12 {
		t.Errorf("exp inclusion = %g, want %g", got, want)
	}
	b.Kind = RankPriority
	if got := b.InclusionProb(0.5, 0.4); got != 0.2 {
		t.Errorf("priority inclusion = %g, want 0.2", got)
	}
	if got := b.InclusionProb(10, 0.4); got != 1 {
		t.Errorf("priority inclusion capped = %g, want 1", got)
	}
	b.Kind = RankUniform
	if got := b.InclusionProb(3, 0.25); got != 0.25 {
		t.Errorf("uniform inclusion = %g, want 0.25", got)
	}
	if got := b.InclusionProb(3, math.Inf(1)); got != 1 {
		t.Errorf("infinite threshold inclusion = %g, want 1", got)
	}
	if got := b.InclusionProb(0, 0.5); got != 0 {
		t.Errorf("zero weight inclusion = %g, want 0", got)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := NewBottomK(0, RankPriority, NewSeedHash(0)); err == nil {
		t.Error("NewBottomK(0) should fail")
	}
	if _, err := NewBottomK(3, RankKind(99), NewSeedHash(0)); err == nil {
		t.Error("unknown rank kind should fail")
	}
}

func TestRankFamiliesMonotoneInWeight(t *testing.T) {
	// Larger weight ⇒ smaller rank ⇒ more likely sampled, for both
	// weighted families, at any fixed seed.
	prop := func(seedBits uint32, w1Bits, w2Bits uint16) bool {
		u := (float64(seedBits) + 1) / (math.MaxUint32 + 1)
		w1 := float64(w1Bits)/1000 + 0.001
		w2 := w1 + float64(w2Bits)/1000 + 0.001
		return Rank(RankPriority, u, w2) <= Rank(RankPriority, u, w1) &&
			Rank(RankExponential, u, w2) <= Rank(RankExponential, u, w1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
