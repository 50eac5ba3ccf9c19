package dataset

import (
	"fmt"

	"repro/internal/sampling"
)

// SampleBottomK draws coordinated bottom-k samples (priority ranks
// rank = u/w, shared per-item seeds) of every instance and reduces them to
// per-item monotone outcomes following the paper's footnote 1: conditioned
// on the seeds of the other items, item k is included in instance i iff
// its rank is below t_ik, the k-th smallest rank among the other items —
// equivalently iff w_ik ≥ u_k/t_ik, a linear threshold τ*_ik = 1/t_ik.
// Each item therefore gets its own TupleScheme; the estimators consume the
// outcomes exactly as with PPS. The reduction itself
// (sampling.CondThreshold, sampling.TauFromThreshold) is shared with the
// streaming engine, which must reproduce these outcomes bit-for-bit; this
// sampler sorts for the order statistics with sampling.KSmallest, the
// engine selects them.
func SampleBottomK(d Dataset, k int, hash sampling.SeedHash) (CoordinatedSample, error) {
	if k <= 0 {
		return CoordinatedSample{}, fmt.Errorf("dataset: bottom-k size %d must be positive", k)
	}
	n := d.N()
	r := d.R()
	seeds := make([]float64, n)
	for key := 0; key < n; key++ {
		seeds[key] = hash.U(uint64(key))
	}
	// Per instance: every item's conditional threshold t_ik (k-th smallest
	// rank among the other items), derived from the k+1 smallest ranks.
	thresholds := make([][]float64, r)
	for i := 0; i < r; i++ {
		ranks := make([]float64, n)
		for key := 0; key < n; key++ {
			ranks[key] = sampling.Rank(sampling.RankPriority, seeds[key], d.W[i][key])
		}
		smallest := sampling.KSmallest(ranks, k+1)
		thresholds[i] = make([]float64, n)
		for key := 0; key < n; key++ {
			thresholds[i][key] = sampling.CondThreshold(smallest, k, ranks[key])
		}
	}
	cs := CoordinatedSample{Outcomes: make([]sampling.TupleOutcome, n)}
	for key := 0; key < n; key++ {
		tau := make([]float64, r)
		for i := 0; i < r; i++ {
			tau[i] = sampling.TauFromThreshold(thresholds[i][key])
		}
		scheme, err := sampling.NewTupleScheme(tau)
		if err != nil {
			return CoordinatedSample{}, fmt.Errorf("dataset: item %d scheme: %w", key, err)
		}
		o := scheme.Sample(d.Tuple(key), seeds[key])
		cs.Outcomes[key] = o
		cs.SampledEntries += o.NumKnown()
		for i := 0; i < r; i++ {
			if d.W[i][key] > 0 {
				cs.TotalEntries++
			}
		}
	}
	return cs, nil
}
