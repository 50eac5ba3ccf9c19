// Package cluster is monestd's horizontal scale-out layer: a consistent-
// hash ring partitioning item keys across N nodes, and a coordinator that
// routes ingest to the owning node while scatter-gathering the nodes'
// binary sketch states into one local merge engine for serving.
//
// The whole design leans on the same property the engine already uses
// across shards (the paper's footnote-1 coordination): bottom-k sketches
// sharing a seed hash merge losslessly (merge = per-key max-weight
// union), so "N nodes each sketching a key range, merged at a
// coordinator" is snapshot-equivalent to "one node sketching the union
// stream" — bit-identical estimates, not approximately-equal ones. The
// cluster_test.go equivalence test pins exactly that.
package cluster

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/sampling"
)

// virtualNodes is the per-node vnode count every ring uses: enough
// points that key ownership splits within a few percent of evenly for
// small clusters, cheap enough to rebuild instantly.
const virtualNodes = 64

// Ring is a consistent-hash ring over node addresses. Placement is
// deterministic from the engine's seed hash alone: every router built
// with the same salt and node list maps every key to the same owner,
// with no coordination protocol. Keys map to the unit
// interval through the SAME hash.U the sketches use for seeds, and each
// node claims the arc below each of its virtual points — so adding a
// node moves only the keys landing on its new arcs (the consistent-
// hashing property ring_test.go pins).
type Ring struct {
	hash  sampling.SeedHash
	nodes []string
	pos   []float64 // virtual point positions, ascending
	owner []int32   // node index owning each point, parallel to pos
}

// NewRing builds the ring. Nodes must be non-empty and distinct (the
// address IS the ring identity; a duplicate would silently double a
// node's share).
func NewRing(hash sampling.SeedHash, nodes []string) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node address")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node address %q", n)
		}
		seen[n] = true
	}
	r := &Ring{
		hash:  hash,
		nodes: append([]string(nil), nodes...),
		pos:   make([]float64, 0, len(nodes)*virtualNodes),
		owner: make([]int32, 0, len(nodes)*virtualNodes),
	}
	type point struct {
		pos  float64
		node int32
	}
	pts := make([]point, 0, len(nodes)*virtualNodes)
	for i, n := range nodes {
		for v := 0; v < virtualNodes; v++ {
			// The vnode key is a string so two nodes' points can never
			// collide by construction ("a#12" != "b#12"); hash.U then
			// places it exactly as it would seed an item key.
			p := r.hash.U(sampling.StringKey(n + "#" + strconv.Itoa(v)))
			pts = append(pts, point{pos: p, node: int32(i)})
		}
	}
	// Sort by (pos, node): the tie-break makes the ring a pure function of
	// its inputs even in the astronomically-unlikely event of equal
	// positions.
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].pos != pts[b].pos {
			return pts[a].pos < pts[b].pos
		}
		return pts[a].node < pts[b].node
	})
	for _, p := range pts {
		r.pos = append(r.pos, p.pos)
		r.owner = append(r.owner, p.node)
	}
	return r, nil
}

// Owner returns the index (into Nodes) of the node owning the key: the
// first virtual point at or clockwise of the key's position, wrapping to
// the smallest point past the top of the unit interval.
func (r *Ring) Owner(key uint64) int {
	p := r.hash.U(key)
	i := sort.SearchFloat64s(r.pos, p)
	if i == len(r.pos) {
		i = 0
	}
	return int(r.owner[i])
}

// Nodes returns the ring's node addresses in construction order. The
// slice is shared; callers must not mutate it.
func (r *Ring) Nodes() []string { return r.nodes }
