package main

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Shared workload parameters, identical on every commit (see README.md).
const (
	instances    = 2
	sketchK      = 256
	shardCount   = 16
	seedSalt     = 1
	frameUpdates = 256  // updates per binary frame
	zipfS        = 1.1  // key popularity exponent
	mirrorProb   = 0.9  // P[instance 1 takes instance 0's increment]
	heavyKeys    = 4096 // the popularity head the sel/ustar selections rotate over
)

// gen makes every input of a run from the seed: the daemon sees only what
// gen produced. Keys are the ids 0..U-1 (so dataset.SampleBottomK, which
// seeds item k with hash.U(k), is the batch oracle); popularity is
// Zipf(1.1) under a seed-derived permutation of the ids.
//
// Every update carries a CUMULATIVE weight: the per-(instance,key) running
// total after an Exp(1) increment. The engine folds under max-weight
// semantics, so a stationary random-weight stream stops mutating once each
// key has seen its maximum, and an all-new-keys stream is not a steady
// state either; cumulative weights keep every burst a real mutation over a
// fixed key set. One event updates the key in both instances; instance 1
// takes the same increment with probability 0.9 (the paper's "similar
// instances" regime) and an independent one otherwise.
//
// The random draws are made once, in set-up, into a pool that the run
// cycles through: producing a frame is then a table walk plus two adds
// per event, so the generator competes with the daemon for the two cores
// as little as possible. Totals keep growing across cycles.
type gen struct {
	u    int
	perm []uint32 // popularity rank → key id

	mu    sync.Mutex
	rank  []uint32 // pooled Zipf draws
	inc   [instances][]float32
	pos   int
	total [instances][]float64
	sent  int64 // updates handed out, preload included
}

func newGen(seed int64, u, pool int) *gen {
	r := rand.New(rand.NewSource(seed))
	g := &gen{u: u, perm: make([]uint32, u), rank: make([]uint32, pool)}
	for i, k := range r.Perm(u) {
		g.perm[i] = uint32(k)
	}
	z := rand.NewZipf(r, zipfS, 1, uint64(u-1))
	for i := range g.inc {
		g.inc[i] = make([]float32, pool)
		g.total[i] = make([]float64, u)
	}
	for e := 0; e < pool; e++ {
		g.rank[e] = uint32(z.Uint64())
		g.inc[0][e], g.inc[1][e] = g.drawPair(r)
	}
	// Preload weights: every key starts positive in both instances, and
	// already as heavy as its popularity makes it in the long run — the
	// state a Zipf stream of about u·ζ(1.1) events leaves behind — so the
	// popularity head is the heavy head from the first request on, also on
	// the workload that never writes.
	//
	// A mirrored preload pair is made to differ by up to ±5 %: with
	// bit-equal weights in both instances, the bottom-k thresholds of the
	// two instances coincide for about a third of the seeds, and the
	// estimators are then two to a thousand times cheaper (a symmetric
	// scheme short-circuits them). Seeds must differ in their numbers, not
	// in which code path they measure.
	for rank, k := range g.perm {
		a, b := g.drawPair(r)
		if a == b {
			b *= 0.95 + 0.1*float32(r.Float64())
		}
		scale := 1 + float64(u)*math.Pow(1+float64(rank), -zipfS)
		g.total[0][k], g.total[1][k] = float64(a)*scale, float64(b)*scale
	}
	return g
}

func (g *gen) drawPair(r *rand.Rand) (float32, float32) {
	a := float32(r.ExpFloat64()) + 1e-6 // strictly positive: zero weights are no-ops
	b := a
	if r.Float64() >= mirrorProb {
		b = float32(r.ExpFloat64()) + 1e-6
	}
	return a, b
}

// preload returns the frames that load the whole universe: each key's
// starting weight in both instances, in id order.
func (g *gen) preload() [][]engine.Update {
	g.mu.Lock()
	defer g.mu.Unlock()
	all := make([]engine.Update, 0, g.u*instances)
	for k := 0; k < g.u; k++ {
		for i := 0; i < instances; i++ {
			all = append(all, engine.Update{Instance: i, Key: uint64(k), Weight: g.total[i][k]})
		}
	}
	g.sent += int64(len(all))
	var frames [][]engine.Update
	for len(all) > 0 {
		n := min(frameUpdates, len(all))
		frames = append(frames, all[:n])
		all = all[n:]
	}
	return frames
}

// fill overwrites the frames with the next events of the stream. The
// caller owns the frame storage (one set per writer connection), so the
// steady state allocates nothing.
func (g *gen) fill(frames [][]engine.Update) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, f := range frames {
		for j := 0; j+instances <= len(f); j += instances {
			e := g.pos
			if g.pos++; g.pos == len(g.rank) {
				g.pos = 0
			}
			k := g.perm[g.rank[e]]
			for i := 0; i < instances; i++ {
				g.total[i][k] += float64(g.inc[i][e])
				f[j+i] = engine.Update{Instance: i, Key: uint64(k), Weight: g.total[i][k]}
			}
		}
		g.sent += int64(len(f))
	}
}

// newFrames allocates writer-owned storage for n frames.
func newFrames(n int) [][]engine.Update {
	frames := make([][]engine.Update, n)
	for i := range frames {
		frames[i] = make([]engine.Update, frameUpdates)
	}
	return frames
}

// heavy returns the ids of the n most popular keys, most popular first.
func (g *gen) heavy(n int) []uint64 {
	n = min(n, g.u)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(g.perm[i])
	}
	return ids
}

// final is the aggregated weight matrix the daemon must hold once every
// generated update is acknowledged: under max semantics each key's final
// weight is its running total.
func (g *gen) final() (dataset.Dataset, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	w := make([][]float64, instances)
	for i := range w {
		w[i] = append([]float64(nil), g.total[i]...)
	}
	return dataset.New(nil, w)
}

func (g *gen) updatesSent() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sent
}
