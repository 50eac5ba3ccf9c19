package estreg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/funcs"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// TestServingPathUnbiasedAndDominatesHT is the statistical check on the
// serving path: one fixed two-instance data set is ingested into a fresh
// streaming engine under each of B seed salts, and the snapshot's outcomes
// — bottom-k, so every item carries its own unequal conditional
// thresholds — go through Registry.Build and Sum exactly as a query does.
// Over the replicates the L* sum must be unbiased for Dataset.ExactSum
// (|t| ≤ 4, with t = bias / (sd/√B)) and no more variable than
// Horvitz–Thompson on the same samples (Theorem 4.3).
func TestServingPathUnbiasedAndDominatesHT(t *testing.T) {
	const (
		replicates = 400
		k          = 24
	)
	// Heavy-tailed weights that persist with a large fluctuation, every
	// entry positive: an entry of weight 0 is never sampled, so HT would
	// never see such an item's range revealed and the comparison below
	// would be against a biased estimator.
	rng := rand.New(rand.NewSource(17))
	w := [][]float64{make([]float64, 400), make([]float64, 400)}
	for key := range w[0] {
		w[0][key] = math.Pow(1-rng.Float64(), -1/1.2)
		w[1][key] = w[0][key] * math.Exp(rng.NormFloat64())
	}
	d, err := dataset.New(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	var updates []engine.Update
	for i := range d.W {
		for key, x := range d.W[i] {
			updates = append(updates, engine.Update{Instance: i, Key: uint64(key), Weight: x})
		}
	}
	reg := Default()
	type cell struct {
		f         funcs.F
		truth     float64
		lstar, ht Estimator
		l, h      stats.Welford
	}
	var cells []*cell
	for _, f := range []funcs.F{funcs.RG{P: 1}, funcs.RG{P: 2}, funcs.RGPlus{P: 1}} {
		c := &cell{f: f, truth: d.ExactSum(f, nil)}
		var err error
		if c.lstar, _, err = reg.Build("lstar", f, d.R()); err != nil {
			t.Fatal(err)
		}
		if c.ht, _, err = reg.Build("ht", f, d.R()); err != nil {
			t.Fatal(err)
		}
		cells = append(cells, c)
	}
	for salt := uint64(1); salt <= replicates; salt++ {
		eng, err := engine.New(engine.Config{Instances: d.R(), K: k, Shards: 4, Hash: sampling.NewSeedHash(salt)})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.IngestBatch(updates); err != nil {
			t.Fatal(err)
		}
		outcomes := eng.Snapshot().Sample.Outcomes
		for _, c := range cells {
			l, err := Sum(c.lstar, outcomes, nil)
			if err != nil {
				t.Fatal(err)
			}
			h, err := Sum(c.ht, outcomes, nil)
			if err != nil {
				t.Fatal(err)
			}
			c.l.Add(l.Estimate)
			c.h.Add(h.Estimate)
		}
	}
	for _, c := range cells {
		bias := c.l.Mean() - c.truth
		tstat := bias / c.l.StdErr()
		htT := (c.h.Mean() - c.truth) / c.h.StdErr()
		t.Logf("%-5s truth %.6g  L*: bias %+.3g sd %.4g t %+.2f   HT: bias %+.3g sd %.4g t %+.2f",
			c.f.Name(), c.truth, bias, c.l.Std(), tstat, c.h.Mean()-c.truth, c.h.Std(), htT)
		if math.Abs(tstat) > 4 {
			t.Errorf("%s: L* sum biased on the serving path: mean %g vs exact %g, t = %.2f over %d salts",
				c.f.Name(), c.l.Mean(), c.truth, tstat, replicates)
		}
		if math.Abs(htT) > 4 {
			t.Errorf("%s: HT sum biased (t = %.2f): the variance comparison needs an unbiased baseline", c.f.Name(), htT)
		}
		if c.l.Var() > c.h.Var() {
			t.Errorf("%s: Var[L*] = %g exceeds Var[HT] = %g (Thm 4.3)", c.f.Name(), c.l.Var(), c.h.Var())
		}
	}
}
