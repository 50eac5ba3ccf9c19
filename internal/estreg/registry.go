// Package estreg is the pluggable estimator registry of the serving path:
// it maps estimator names to constructors over internal/core,
// internal/order and internal/funcs, so that every estimator of the batch
// reproduction — L*, U*, Horvitz–Thompson, the v-optimal benchmark and the
// ≺-customized order-optimal family — is servable from a streaming
// snapshot by name.
//
// Names resolve as "<base>" or "<base>:<spec>"; the base selects the
// builder and the spec parameterizes it. Built-in names:
//
//	lstar           L* (Section 4) — the competitive default
//	ustar           U* (Section 6) — customized for large values
//	ht              Horvitz–Thompson — the baseline L* dominates
//	voptimal        plug-in v-optimal (Theorem 2.1 benchmark, diagnostic)
//	order:<spec>    ≺+-optimal estimator on a discrete ladder (Section 5),
//	                spec = "vals=…;pis=…;by=asc|desc|near:<t>"
//
// A built Estimator is bound to one item function f and evaluates per-item
// outcomes; Sum aggregates it over a snapshot exactly like
// dataset.CoordinatedSample.EstimateSum (bit-identical accumulation order,
// asserted in the tests), which is what lets the HTTP serving path answer
// with the batch pipeline's numbers.
package estreg

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/funcs"
	"repro/internal/sampling"
)

// Estimator evaluates one per-item estimate on a sampled outcome. A built
// estimator is bound to its item function; implementations must be safe
// for concurrent use (the server evaluates batched queries over a shared
// snapshot).
type Estimator interface {
	// Name returns the canonical registry name, including any spec.
	Name() string
	// Estimate returns the per-item estimate on the outcome.
	Estimate(o sampling.TupleOutcome) (float64, error)
}

// Meta describes a built estimator's paper-level guarantees — the
// competitiveness/customization metadata the query API returns alongside
// estimates.
type Meta struct {
	// Estimator is the canonical name the build resolved to.
	Estimator string `json:"estimator"`
	// Func names the bound item function.
	Func string `json:"func"`
	// Unbiased reports E[f̂] = f(v) for every data vector.
	Unbiased bool `json:"unbiased"`
	// Nonnegative reports f̂ ≥ 0 on every outcome.
	Nonnegative bool `json:"nonnegative"`
	// Monotone reports that more-informative outcomes never decrease the
	// estimate.
	Monotone bool `json:"monotone"`
	// CompetitiveRatio is a universal bound on E[f̂²]/min_est E[f̂²] when
	// one is known; 0 means no universal bound holds or none is proved.
	CompetitiveRatio float64 `json:"competitive_ratio,omitempty"`
	// Note cites the construction.
	Note string `json:"note,omitempty"`
}

// Builder constructs an estimator for item function f over r-instance
// outcomes from the spec following the registered name's colon (empty when
// the name has no colon).
type Builder func(spec string, f funcs.F, r int) (Estimator, Meta, error)

// Registry maps base names to builders. The zero value is empty; New and
// Default construct usable registries. Methods are safe for concurrent
// use.
type Registry struct {
	mu       sync.RWMutex
	builders map[string]Builder
	allow    map[string]bool // nil = every registered name allowed
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{builders: make(map[string]Builder)}
}

// Default returns a registry with every built-in estimator registered.
func Default() *Registry {
	r := New()
	for name, b := range builtins() {
		if err := r.Register(name, b); err != nil {
			panic(fmt.Sprintf("estreg: built-in %q: %v", name, err))
		}
	}
	return r
}

// Register adds a builder under a base name (lowercase letters, digits,
// '_', no colon — the colon separates the spec at lookup).
func (r *Registry) Register(name string, b Builder) error {
	if name == "" || strings.ContainsFunc(name, func(c rune) bool {
		return !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_')
	}) {
		return fmt.Errorf("estreg: invalid estimator name %q", name)
	}
	if b == nil {
		return fmt.Errorf("estreg: nil builder for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.builders[name]; dup {
		return fmt.Errorf("estreg: estimator %q already registered", name)
	}
	r.builders[name] = b
	return nil
}

// Allow restricts Build to the given base names (an operator allowlist;
// cmd/monestd exposes it as -estimators). Every name must be registered.
// An empty list clears the restriction.
func (r *Registry) Allow(names []string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(names) == 0 {
		r.allow = nil
		return nil
	}
	allow := make(map[string]bool, len(names))
	for _, n := range names {
		if _, ok := r.builders[n]; !ok {
			return fmt.Errorf("estreg: cannot allow unregistered estimator %q", n)
		}
		allow[n] = true
	}
	r.allow = allow
	return nil
}

// Names returns the base names Build accepts, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.builders))
	for n := range r.builders {
		if r.allow == nil || r.allow[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Build resolves "<base>" or "<base>:<spec>" and constructs the estimator
// for item function f over r-instance outcomes.
func (r *Registry) Build(name string, f funcs.F, instances int) (Estimator, Meta, error) {
	if f == nil {
		return nil, Meta{}, fmt.Errorf("estreg: nil item function")
	}
	if instances < 1 {
		return nil, Meta{}, fmt.Errorf("estreg: instance count %d must be positive", instances)
	}
	base, spec := name, ""
	if i := strings.IndexByte(name, ':'); i >= 0 {
		base, spec = name[:i], name[i+1:]
	}
	r.mu.RLock()
	b, ok := r.builders[base]
	allowed := ok && (r.allow == nil || r.allow[base])
	r.mu.RUnlock()
	if !ok {
		return nil, Meta{}, fmt.Errorf("estreg: unknown estimator %q (have %s)", base, strings.Join(r.Names(), ", "))
	}
	if !allowed {
		return nil, Meta{}, fmt.Errorf("estreg: estimator %q is not allowed on this server (have %s)", base, strings.Join(r.Names(), ", "))
	}
	est, meta, err := b(spec, f, instances)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("estreg: building %q: %w", name, err)
	}
	meta.Func = f.Name()
	if meta.Unbiased && meta.Nonnegative && zeroAtOrigin(f, instances) {
		est = zeroOnEmpty{est}
	}
	return est, meta, nil
}

// zeroOnEmpty is the empty-outcome rule, applied once here for every
// estimator: an outcome with no known entry is consistent with the zero
// vector at every seed in [ρ, 1], so when f(0,…,0) = 0 its lower-bound
// function is 0 there, and constraint (7) of the paper — ∫_ρ^1 f̂ ≤
// f^(v)(ρ) for every consistent v — leaves a nonnegative unbiased
// estimator no value but 0. The wrapped estimator would compute exactly
// that (asserted for every built-in in the tests), at a cost per item; a
// bottom-k snapshot has ~(keys − instances·k) such items, so skipping them
// is what makes a sum cost what the sample holds rather than what the key
// universe holds. Estimators that do not declare both properties
// (voptimal) and functions with f(0) ≠ 0 keep evaluating.
type zeroOnEmpty struct{ Estimator }

func (e zeroOnEmpty) Estimate(o sampling.TupleOutcome) (float64, error) {
	for _, known := range o.Known {
		if known {
			return e.Estimator.Estimate(o)
		}
	}
	return 0, nil
}

// zeroAtOrigin reports f(0,…,0) == 0 over r-instance tuples. A function
// whose arity does not fit r is left alone: its estimator fails or not on
// its own terms.
func zeroAtOrigin(f funcs.F, r int) bool {
	if a := f.Arity(); a != 0 && a != r {
		return false
	}
	return f.Value(make([]float64, r)) == 0
}

// funcEstimator adapts a per-outcome closure; the closures below are
// stateless, hence trivially concurrency-safe.
type funcEstimator struct {
	name string
	eval func(o sampling.TupleOutcome) (float64, error)
}

func (e funcEstimator) Name() string { return e.name }
func (e funcEstimator) Estimate(o sampling.TupleOutcome) (float64, error) {
	return e.eval(o)
}

// builtins returns the built-in builders.
func builtins() map[string]Builder {
	return map[string]Builder{
		"lstar": func(spec string, f funcs.F, _ int) (Estimator, Meta, error) {
			if spec != "" {
				return nil, Meta{}, fmt.Errorf("lstar takes no spec, got %q", spec)
			}
			est := funcEstimator{name: "lstar", eval: func(o sampling.TupleOutcome) (float64, error) {
				return funcs.EstimateLStar(f, o), nil
			}}
			return est, Meta{
				Estimator:        "lstar",
				Unbiased:         true,
				Nonnegative:      true,
				Monotone:         true,
				CompetitiveRatio: 4,
				Note:             "L* (Section 4): order-optimal for 'smaller f first'; 4-competitive (Thm 4.1), dominates HT (Thm 4.3)",
			}, nil
		},
		"ustar": func(spec string, f funcs.F, _ int) (Estimator, Meta, error) {
			if spec != "" {
				return nil, Meta{}, fmt.Errorf("ustar takes no spec, got %q", spec)
			}
			est := funcEstimator{name: "ustar", eval: func(o sampling.TupleOutcome) (float64, error) {
				return funcs.EstimateUStar(f, o, core.DefaultGrid()), nil
			}}
			return est, Meta{
				Estimator:   "ustar",
				Unbiased:    true,
				Nonnegative: true,
				Note:        "U* (Section 6): order-optimal for 'larger f first' (Lemma 6.1); customized for dissimilar data",
			}, nil
		},
		"ht": func(spec string, f funcs.F, _ int) (Estimator, Meta, error) {
			if spec != "" {
				return nil, Meta{}, fmt.Errorf("ht takes no spec, got %q", spec)
			}
			est := funcEstimator{name: "ht", eval: func(o sampling.TupleOutcome) (float64, error) {
				return funcs.EstimateHT(f, o), nil
			}}
			return est, Meta{
				Estimator:   "ht",
				Unbiased:    true,
				Nonnegative: true,
				Note:        "Horvitz–Thompson baseline: f(v)/p on revealing outcomes, 0 otherwise; dominated by L*",
			}, nil
		},
		"voptimal": func(spec string, f funcs.F, _ int) (Estimator, Meta, error) {
			if spec != "" {
				return nil, Meta{}, fmt.Errorf("voptimal takes no spec, got %q", spec)
			}
			est := funcEstimator{name: "voptimal", eval: func(o sampling.TupleOutcome) (float64, error) {
				// Customize the Theorem 2.1 oracle to the outcome's
				// pointwise-minimal consistent vector. On fully revealed
				// outcomes this is the per-data optimum; elsewhere it is a
				// plug-in diagnostic, not an unbiased estimator.
				return funcs.EstimateVOptimal(f, o.Scheme, o.LowerVector(), o.Rho, core.DefaultGrid())
			}}
			return est, Meta{
				Estimator:   "voptimal",
				Nonnegative: true,
				Note:        "plug-in v-optimal (Thm 2.1 benchmark) customized to the minimal consistent vector; diagnostic — unbiased only where the outcome reveals v",
			}, nil
		},
		"order": buildOrder,
	}
}

// SumResult aggregates per-item estimates over a snapshot.
type SumResult struct {
	// Estimate is the sum of per-item estimates — unbiased for
	// Σ_k f(v^(k)) whenever the per-item estimator is.
	Estimate float64 `json:"estimate"`
	// SecondMoment is Σ_k f̂_k², a dispersion diagnostic: with pairwise
	// independent seeds the sum estimator's variance is Σ_k Var[f̂_k] ≤
	// SecondMoment.
	SecondMoment float64 `json:"second_moment"`
	// MaxItem is the largest per-item estimate.
	MaxItem float64 `json:"max_item_estimate"`
	// Items counts the aggregated items.
	Items int `json:"items"`
}

// add folds one per-item estimate in.
func (res *SumResult) add(x float64) {
	res.Estimate += x
	res.SecondMoment += x * x
	// First item seeds the max: custom estimators may go negative, and a
	// zero-initialized max would report a value no item produced.
	if res.Items == 0 || x > res.MaxItem {
		res.MaxItem = x
	}
	res.Items++
}

// Sum applies the estimator to the selected outcomes (nil = all) and
// aggregates. The accumulation order over items matches
// dataset.CoordinatedSample.EstimateSum, so for the built-in lstar/ustar/ht
// the Estimate field is bit-identical to the batch pipeline's sum on the
// same outcomes.
func Sum(est Estimator, outcomes []sampling.TupleOutcome, items []int) (SumResult, error) {
	var res SumResult
	add := func(k int) error {
		if k < 0 || k >= len(outcomes) {
			return fmt.Errorf("estreg: item %d outside [0, %d)", k, len(outcomes))
		}
		x, err := est.Estimate(outcomes[k])
		if err != nil {
			return fmt.Errorf("estreg: item %d: %w", k, err)
		}
		res.add(x)
		return nil
	}
	if items == nil {
		for k := range outcomes {
			if err := add(k); err != nil {
				return SumResult{}, err
			}
		}
		return res, nil
	}
	for _, k := range items {
		if err := add(k); err != nil {
			return SumResult{}, err
		}
	}
	return res, nil
}

// SumSparse is Sum over a dense list of n outcomes given sparsely: exc
// holds, in ascending Pos, every outcome that may have a known entry, and
// dense() yields the whole list. For an estimator carrying the
// empty-outcome rule every outcome outside exc is exactly 0 unevaluated,
// so only exc is walked — in Sum's order, a run of skipped items folded
// in as one zero: x + (+0) == x in IEEE-754 and the max only needs to see
// a zero once, so all four fields equal Sum(est, dense(), items) bit for
// bit, and an estimator error carries the same merged index. The cost is
// what the sample holds, not n, and dense() is never called. Any other
// estimator (voptimal, f(0) ≠ 0) is Sum over dense().
func SumSparse(est Estimator, n int, exc []sampling.PlacedOutcome, items []int, dense func() []sampling.TupleOutcome) (SumResult, error) {
	if _, ok := est.(zeroOnEmpty); !ok {
		return Sum(est, dense(), items)
	}
	var res SumResult
	add := func(e sampling.PlacedOutcome) error {
		x, err := est.Estimate(e.Outcome)
		if err != nil {
			return fmt.Errorf("estreg: item %d: %w", e.Pos, err)
		}
		res.add(x)
		return nil
	}
	zeros := func(count int) {
		if count > 0 {
			res.add(0)
			res.Items += count - 1
		}
	}
	if items == nil {
		next := 0
		for _, e := range exc {
			zeros(e.Pos - next)
			if err := add(e); err != nil {
				return SumResult{}, err
			}
			next = e.Pos + 1
		}
		zeros(n - next)
		return res, nil
	}
	for _, k := range items {
		if k < 0 || k >= n {
			return SumResult{}, fmt.Errorf("estreg: item %d outside [0, %d)", k, n)
		}
		i, listed := slices.BinarySearchFunc(exc, k, func(e sampling.PlacedOutcome, k int) int { return cmp.Compare(e.Pos, k) })
		if !listed {
			zeros(1)
		} else if err := add(exc[i]); err != nil {
			return SumResult{}, err
		}
	}
	return res, nil
}
