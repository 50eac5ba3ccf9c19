// Package repro is the public facade of a from-scratch reproduction of
//
//	Edith Cohen, "Estimation for Monotone Sampling: Competitiveness and
//	Customization", PODC 2014 (arXiv:1212.0243).
//
// It re-exports the curated API of the internal packages: coordinated
// (shared-seed) sampling schemes, the item functions of the paper's
// examples, and the L*, U*, Horvitz–Thompson and order-optimal estimators,
// together with the evaluation machinery (variance, competitive ratios) and
// the applications (Lp-difference estimation over samples, all-distances
// sketch similarity).
//
// Quick start: sample a tuple and estimate its range with L*.
//
//	scheme := repro.UniformTuple(2)              // coordinated PPS, τ*=1
//	f, _ := repro.NewRG(1)                       // |v1 − v2|
//	outcome := scheme.Sample([]float64{0.6, 0.2}, seed)
//	estimate := repro.EstimateLStar(f, outcome)  // unbiased, nonnegative,
//	                                             // 4-competitive
//
// See the examples/ directory for end-to-end programs and DESIGN.md for the
// architecture and the paper-reproduction index.
package repro

import (
	"repro/internal/ads"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/estreg"
	"repro/internal/funcs"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/sampling"
	"repro/internal/store"
)

// Sampling substrate.
type (
	// SeedHash derives coordinated per-item uniform seeds from item keys.
	SeedHash = sampling.SeedHash
	// TupleScheme is coordinated PPS sampling of one item's tuple: entry i
	// is observed iff v_i ≥ u·τ*_i for the shared seed u.
	TupleScheme = sampling.TupleScheme
	// TupleOutcome is the information a sample carries about one tuple.
	TupleOutcome = sampling.TupleOutcome
)

// NewSeedHash returns a deterministic seed hasher with the given salt.
func NewSeedHash(salt uint64) SeedHash { return sampling.NewSeedHash(salt) }

// NewTupleScheme validates per-instance PPS thresholds τ*.
func NewTupleScheme(tau []float64) (TupleScheme, error) { return sampling.NewTupleScheme(tau) }

// UniformTuple is the τ* ≡ 1 scheme of the paper's examples.
func UniformTuple(r int) TupleScheme { return sampling.UniformTuple(r) }

// Item functions.
type (
	// F is an item function with the outcome-level machinery estimators
	// consume (values, lower/upper bounds, consistent families).
	F = funcs.F
	// RG is the symmetric exponentiated range (max−min)^p.
	RG = funcs.RG
	// RGPlus is the one-sided range max(0, v1−v2)^p.
	RGPlus = funcs.RGPlus
	// MaxTuple is max(v) — the sketch-similarity building block.
	MaxTuple = funcs.MaxTuple
	// OrTuple is the distinct-count summand 1[∃ v_i > 0].
	OrTuple = funcs.OrTuple
	// AndTuple is the intersection summand 1[∀ v_i > 0].
	AndTuple = funcs.AndTuple
	// LinComb is |Σ c_i·v_i|^p.
	LinComb = funcs.LinComb
)

// NewRG returns the RG_p function.
func NewRG(p float64) (RG, error) { return funcs.NewRG(p) }

// NewRGPlus returns the RG_{p+} function.
func NewRGPlus(p float64) (RGPlus, error) { return funcs.NewRGPlus(p) }

// NewLinComb returns |Σ c_i·v_i|^p.
func NewLinComb(c []float64, p float64) (LinComb, error) { return funcs.NewLinComb(c, p) }

// Estimators. All are unbiased and nonnegative; L* is additionally
// 4-competitive, monotone, and dominates HT (Theorems 4.1–4.3).
var (
	// ErrHTInapplicable reports a zero revelation probability.
	ErrHTInapplicable = core.ErrHTInapplicable
	// ErrNotEstimable reports that condition (9) fails.
	ErrNotEstimable = core.ErrNotEstimable
)

// Grid tunes the numeric solvers (zero value = sensible defaults).
type Grid = core.Grid

// EstimateLStar evaluates the L* estimator on a concrete outcome.
func EstimateLStar(f F, o TupleOutcome) float64 { return funcs.EstimateLStar(f, o) }

// EstimateUStar evaluates the U* estimator on a concrete outcome.
func EstimateUStar(f F, o TupleOutcome, g Grid) float64 { return funcs.EstimateUStar(f, o, g) }

// EstimateHT evaluates the Horvitz–Thompson estimator on a concrete
// outcome (0 on outcomes that do not reveal f).
func EstimateHT(f F, o TupleOutcome) float64 { return funcs.EstimateHT(f, o) }

// Datasets and sum aggregates.
type (
	// Dataset is r instances (rows) over n items (columns).
	Dataset = dataset.Dataset
	// CoordinatedSample is a materialized coordinated sample of a Dataset.
	CoordinatedSample = dataset.CoordinatedSample
	// EstimatorKind selects L*, U* or HT for sum aggregation.
	EstimatorKind = dataset.EstimatorKind
	// StableConfig parameterizes the similar-instances generator.
	StableConfig = dataset.StableConfig
	// FlowsConfig parameterizes the dissimilar-instances generator.
	FlowsConfig = dataset.FlowsConfig
)

// Estimator kinds for CoordinatedSample.EstimateSum.
const (
	KindLStar = dataset.KindLStar
	KindUStar = dataset.KindUStar
	KindHT    = dataset.KindHT
)

// NewDataset validates a weight matrix.
func NewDataset(names []string, w [][]float64) (Dataset, error) { return dataset.New(names, w) }

// StableDataset generates a surnames-like (similar) two-instance dataset.
func StableDataset(cfg StableConfig) Dataset { return dataset.Stable(cfg) }

// FlowsDataset generates an IP-flow-like (dissimilar) two-instance dataset.
func FlowsDataset(cfg FlowsConfig) Dataset { return dataset.Flows(cfg) }

// SampleCoordinated draws the coordinated sample of selected instances.
func SampleCoordinated(d Dataset, instances []int, scheme TupleScheme, hash SeedHash) (CoordinatedSample, error) {
	return dataset.SampleCoordinated(d, instances, scheme, hash)
}

// SampleBottomK draws coordinated bottom-k (priority-rank) samples of every
// instance and reduces them to per-item monotone outcomes via conditional
// inclusion thresholds (the paper's footnote 1).
func SampleBottomK(d Dataset, k int, hash SeedHash) (CoordinatedSample, error) {
	return dataset.SampleBottomK(d, k, hash)
}

// JaccardEstimate estimates the Jaccard coefficient of the instances'
// positive supports from per-item outcomes (ratio of unbiased L* sums of
// AND and OR).
func JaccardEstimate(outcomes []TupleOutcome) float64 { return funcs.JaccardEstimate(outcomes) }

// Streaming coordinated sketches (the live counterpart of SampleBottomK;
// cmd/monestd serves them over HTTP).
type (
	// Engine is a sharded, concurrent streaming store of coordinated
	// bottom-k sketches. Engine.Version reports its mutation
	// version, and Engine.CachedView serves the last reduced snapshot
	// lock-free and bit-identically while the version holds (optionally
	// within a staleness bound) — the serving hot path of monestd.
	Engine = engine.Engine
	// EngineConfig parameterizes an Engine.
	EngineConfig = engine.Config
	// EngineUpdate is one weighted observation for batched ingest.
	EngineUpdate = engine.Update
	// EngineSnapshot is a consistent cut reduced to per-item outcomes —
	// bit-identical to SampleBottomK on the aggregated weight matrix when
	// items are keyed by column index. Snapshots returned by the cache are
	// shared between readers (outcomes are backed by common arrays): treat
	// them as immutable.
	EngineSnapshot = engine.Snapshot
	// EngineStats summarizes an engine's contents and traffic as one
	// consistent cut (taken under the same all-shard lock as Snapshot).
	EngineStats = engine.Stats
)

// NewEngine returns an empty streaming sketch engine.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// Durability (internal/store): write-ahead logging of engine updates,
// compact sketch checkpoints, and crash recovery for the streaming
// engine. See DESIGN.md §6.6 for the on-disk formats and invariants.
type (
	// EngineState is a portable, deterministic serialization of an
	// engine's full sketch state — what checkpoints and /v1/export carry.
	EngineState = engine.State
	// Store persists engine updates (WAL) and state checkpoints; open one
	// with OpenStore and wire it to an engine with AttachStore.
	Store = store.Store
	// StoreOptions selects the WAL fsync policy.
	StoreOptions = store.Options
	// StorePersistence couples a recovered engine with its store:
	// journaled ingest plus Checkpoint/Sync/Close lifecycle.
	StorePersistence = store.Persistence
	// RecoveryStats reports what a boot-time recovery restored/replayed.
	RecoveryStats = store.RecoveryStats
	// CheckpointStats reports what one checkpoint wrote and truncated.
	CheckpointStats = store.CheckpointStats
)

// WAL fsync policies for StoreOptions.
const (
	FsyncAlways   = store.FsyncAlways
	FsyncInterval = store.FsyncInterval
	FsyncNever    = store.FsyncNever
)

// OpenStore opens the store rooted at state directory dir, creating it
// if needed.
func OpenStore(dir string, opt StoreOptions) (Store, error) { return store.Open(dir, opt) }

// AttachStore recovers an empty engine from the store and journals every
// subsequent ingest through it. The returned Persistence owns both ends:
// Close flushes, checkpoints, and closes the store.
func AttachStore(e *Engine, st Store) (*StorePersistence, RecoveryStats, error) {
	return store.Attach(e, st)
}

// EncodeEngineState serializes a state cut (Engine.DumpState: the
// registry plus each instance's global bottom-(k+1)) into the
// integrity-checked binary artifact /v1/export serves.
func EncodeEngineState(st *EngineState) []byte { return store.EncodeState(st) }

// DecodeEngineState parses and validates an exported state artifact.
func DecodeEngineState(data []byte) (*EngineState, error) { return store.DecodeState(data) }

// Estimator registry — the pluggable estimator zoo of the serving path
// (internal/estreg): every batch estimator servable by name from a
// streaming snapshot, with room for custom registrations.
type (
	// EstimatorRegistry maps names ("lstar", "ustar", "ht", "voptimal",
	// "order:<spec>") to estimator constructors.
	EstimatorRegistry = estreg.Registry
	// BuiltEstimator is a per-item estimator bound to one item function.
	BuiltEstimator = estreg.Estimator
	// EstimatorMeta carries a built estimator's guarantees (unbiasedness,
	// competitiveness ratio, construction note).
	EstimatorMeta = estreg.Meta
	// EstimatorBuilder constructs estimators for custom registrations.
	EstimatorBuilder = estreg.Builder
	// EstimatorSum aggregates per-item estimates over a snapshot.
	EstimatorSum = estreg.SumResult
)

// DefaultEstimators returns a registry with every built-in estimator.
func DefaultEstimators() *EstimatorRegistry { return estreg.Default() }

// NewEstimatorRegistry returns an empty registry for custom builds.
func NewEstimatorRegistry() *EstimatorRegistry { return estreg.New() }

// SumEstimates applies a built estimator to the selected outcomes
// (nil = all) and aggregates exactly like CoordinatedSample.EstimateSum.
func SumEstimates(est BuiltEstimator, outcomes []TupleOutcome, items []int) (EstimatorSum, error) {
	return estreg.Sum(est, outcomes, items)
}

// StringKey maps a string item key into the engine's uint64 key space,
// consistently with SeedHash.UString.
func StringKey(s string) uint64 { return sampling.StringKey(s) }

// Graphs and all-distances sketches (the Section 7 similarity application).
type (
	// Graph is a weighted graph with Dijkstra traversals.
	Graph = graph.Graph
	// Sketch is a bottom-k all-distances sketch with HIP probabilities.
	Sketch = ads.Sketch
	// Alpha is a non-increasing distance-decay kernel.
	Alpha = ads.Alpha
)

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) (*Graph, error) { return graph.New(n) }

// PreferentialAttachment generates a social-network-like graph.
func PreferentialAttachment(n, m int, seed int64) (*Graph, error) {
	return graph.PreferentialAttachment(n, m, seed)
}

// BuildSketches computes the bottom-k ADS of every node.
func BuildSketches(g *Graph, k int, hash SeedHash) ([]Sketch, error) { return ads.Build(g, k, hash) }

// ExactSimilarity computes closeness similarity from exact distances.
func ExactSimilarity(g *Graph, u, v int, alpha Alpha) float64 {
	return ads.ExactSimilarity(g, u, v, alpha)
}

// EstimateSimilarity estimates closeness similarity from two sketches.
func EstimateSimilarity(su, sv Sketch, alpha Alpha) float64 {
	return ads.EstimateSimilarity(su, sv, alpha)
}

// AlphaInverse is α(d) = 1/(1+d).
func AlphaInverse(d float64) float64 { return ads.AlphaInverse(d) }

// Order-optimal (customized) estimators on discrete domains (Section 5).
type (
	// OrderScheme is a discrete value/probability ladder.
	OrderScheme = order.Scheme
	// OrderProblem bundles a discrete problem with a priority order ≺.
	OrderProblem = order.Problem
	// OrderEstimator is a ≺+-optimal estimator.
	OrderEstimator = order.Estimator
)

// NewOrderScheme validates a discrete sampling ladder.
func NewOrderScheme(vals, pis []float64) (OrderScheme, error) { return order.NewScheme(vals, pis) }

// NewOrderEstimator constructs the ≺+-optimal estimator for a problem.
func NewOrderEstimator(p OrderProblem) (*OrderEstimator, error) { return order.New(p) }

// GridDomain enumerates the full product domain of a ladder.
func GridDomain(s OrderScheme, r int) [][]float64 { return order.GridDomain(s, r) }

// LessByF orders by increasing f (≺+-optimal estimator = L*, Theorem 4.3).
func LessByF(f func([]float64) float64) func(a, b []float64) bool { return order.LessByF(f) }

// LessByFDesc orders by decreasing f (≺+-optimal estimator = U*, Lemma 6.1).
func LessByFDesc(f func([]float64) float64) func(a, b []float64) bool { return order.LessByFDesc(f) }
