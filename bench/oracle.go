package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/estreg"
	"repro/internal/funcs"
	"repro/internal/sampling"
	"repro/internal/store"
)

func engineConfig() engine.Config {
	return engine.Config{Instances: instances, K: sketchK, Shards: shardCount, Hash: sampling.NewSeedHash(seedSalt)}
}

// oracle is the in-process reference a quiesced daemon must agree with,
// bit for bit: the paper's batch sampler (dataset.SampleBottomK) over the
// aggregated final weights, estimated through the same registry.
type oracle struct {
	final  dataset.Dataset
	sample dataset.CoordinatedSample
	reg    *estreg.Registry
	// batchTime is how long the batch sampler took: the anchor that ties
	// the engine's incremental numbers to the paper's batch path.
	batchTime time.Duration
}

func newOracle(g *gen) (*oracle, error) {
	final, err := g.final()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cs, err := dataset.SampleBottomK(final, sketchK, sampling.NewSeedHash(seedSalt))
	if err != nil {
		return nil, err
	}
	return &oracle{final: final, sample: cs, reg: estreg.Default(), batchTime: time.Since(start)}, nil
}

func buildFunc(sp querySpec) (funcs.F, error) {
	switch sp.Func {
	case "rg":
		return funcs.NewRG(sp.P)
	case "rgplus":
		return funcs.NewRGPlus(sp.P)
	}
	return nil, fmt.Errorf("oracle: func %q not used by any workload", sp.Func)
}

// expect evaluates one query spec the way the server documents it.
func (o *oracle) expect(sp querySpec) (estreg.SumResult, error) {
	sum := func(f funcs.F) (estreg.SumResult, error) {
		est, _, err := o.reg.Build(sp.Estimator, f, instances)
		if err != nil {
			return estreg.SumResult{}, err
		}
		var items []int
		if sp.IDs != nil {
			// Keys are the ids 0..U-1, all preloaded, so a key's index in
			// the ascending key order is the id itself.
			items = make([]int, len(sp.IDs))
			for i, id := range sp.IDs {
				items[i] = int(id)
			}
		}
		return estreg.Sum(est, o.sample.Outcomes, items)
	}
	if sp.Statistic == "jaccard" {
		and, err := sum(funcs.AndTuple{})
		if err != nil {
			return estreg.SumResult{}, err
		}
		or, err := sum(funcs.OrTuple{})
		if err != nil {
			return estreg.SumResult{}, err
		}
		jac := 0.0
		if or.Estimate != 0 {
			jac = and.Estimate / or.Estimate
		}
		return estreg.SumResult{Estimate: jac, Items: and.Items}, nil
	}
	f, err := buildFunc(sp)
	if err != nil {
		return estreg.SumResult{}, err
	}
	return sum(f)
}

func sameBits(a *float64, b float64) bool {
	return a != nil && math.Float64bits(*a) == math.Float64bits(b)
}

// checkQueries posts the specs to the daemon and demands the oracle's
// numbers, bit for bit. It returns the version the daemon answered at.
func (o *oracle) checkQueries(ctx context.Context, a *api, base string, specs []querySpec) (uint64, error) {
	raw, err := a.query(ctx, base, queryBody(specs))
	if err != nil {
		return 0, err
	}
	qr, err := decodeQuery(raw)
	if err != nil {
		return 0, err
	}
	if len(qr.Results) != len(specs) {
		return 0, fmt.Errorf("oracle: %d results for %d queries", len(qr.Results), len(specs))
	}
	for i, sp := range specs {
		want, err := o.expect(sp)
		if err != nil {
			return 0, fmt.Errorf("oracle: query %d: %w", i, err)
		}
		got := qr.Results[i]
		if !sameBits(got.Estimate, want.Estimate) || got.Items != want.Items {
			return 0, fmt.Errorf("oracle: query %d (%s %s %s): daemon estimate %v over %d items, oracle %v over %d",
				i, sp.Statistic, sp.Func, sp.Estimator, deref(got.Estimate), got.Items, want.Estimate, want.Items)
		}
		if sp.Statistic != "jaccard" &&
			(!sameBits(got.SecondMoment, want.SecondMoment) || !sameBits(got.MaxItem, want.MaxItem)) {
			return 0, fmt.Errorf("oracle: query %d (%s %s): second moment or max item differ from the oracle", i, sp.Func, sp.Estimator)
		}
	}
	return qr.Version, nil
}

func deref(p *float64) any {
	if p == nil {
		return "<absent>"
	}
	return *p
}

// checkExport compares the daemon's /v1/export artifact with a fresh
// engine fed each key's final weight once. The artifact also carries the
// traffic counters (version, ingests) and the shard layout, which depend
// on how many updates it took to get there and not on the state reached,
// so those three fields are copied over before the byte comparison.
func (o *oracle) checkExport(ctx context.Context, a *api, base string) error {
	eng, err := engine.New(engineConfig())
	if err != nil {
		return err
	}
	if err := eng.IngestBatch(finalUpdates(o.final)); err != nil {
		return err
	}
	want := eng.DumpState()

	raw, err := a.do(ctx, http.MethodGet, base+"/v1/export", nil)
	if err != nil {
		return err
	}
	got, err := store.DecodeState(raw)
	if err != nil {
		return fmt.Errorf("oracle: daemon export: %w", err)
	}
	got.Version, got.Ingests, got.Shards = want.Version, want.Ingests, want.Shards
	if !bytes.Equal(store.EncodeState(got), store.EncodeState(want)) {
		return fmt.Errorf("oracle: /v1/export differs from a fresh engine fed the final weights (%d vs %d keys)",
			len(got.Keys), len(want.Keys))
	}
	return nil
}
