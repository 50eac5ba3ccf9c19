package cluster

import (
	"testing"

	"repro/internal/sampling"
)

// TestRingDeterministic pins the routing contract: every router built
// from the same salt, node list and vnode count maps every key to the
// same owner — coordinators need no coordination protocol to agree.
func TestRingDeterministic(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1, err := NewRing(sampling.NewSeedHash(11), nodes)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(sampling.NewSeedHash(11), nodes)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 10000; key++ {
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("key %d: ring 1 owner %d != ring 2 owner %d", key, r1.Owner(key), r2.Owner(key))
		}
	}
}

// TestRingSaltChangesPlacement guards against a ring that ignores its
// hash: different salts must place keys differently (else the "derived
// from the engine's seed hash" claim is vacuous).
func TestRingSaltChangesPlacement(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1, err := NewRing(sampling.NewSeedHash(1), nodes)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(sampling.NewSeedHash(2), nodes)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for key := uint64(0); key < 10000; key++ {
		if r1.Owner(key) != r2.Owner(key) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("rings with different salts agreed on all 10000 keys")
	}
}

// TestRingBalance checks that the ring's vnode count spreads ownership
// usefully: with 3 nodes every node owns a non-trivial share. The bound
// is deliberately loose (vnode placement is hash-random); the point is
// to catch a ring that starves a member, not to pin the distribution.
func TestRingBalance(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	r, err := NewRing(sampling.NewSeedHash(7), nodes)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 30000
	counts := make([]int, len(nodes))
	for key := uint64(0); key < keys; key++ {
		counts[r.Owner(key)]++
	}
	for i, c := range counts {
		if c < keys/10 {
			t.Errorf("node %d owns %d of %d keys (< 10%%)", i, c, keys)
		}
	}
}

// TestRingConsistentGrowth pins the consistent-hashing property the
// vnode construction exists for: adding a node may move keys only TO
// the new node — no key changes hands between surviving members.
func TestRingConsistentGrowth(t *testing.T) {
	hash := sampling.NewSeedHash(5)
	old3 := []string{"http://a:1", "http://b:1", "http://c:1"}
	new4 := append(append([]string(nil), old3...), "http://d:1")
	r3, err := NewRing(hash, old3)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := NewRing(hash, new4)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for key := uint64(0); key < 20000; key++ {
		before, after := r3.Owner(key), r4.Owner(key)
		if before == after {
			continue
		}
		if got := r4.Nodes()[after]; got != "http://d:1" {
			t.Fatalf("key %d moved from %s to %s, not to the new node",
				key, old3[before], got)
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("adding a fourth node moved no keys at all")
	}
	if moved > 20000/2 {
		t.Fatalf("adding a fourth node moved %d of 20000 keys (expected roughly a quarter)", moved)
	}
}

// TestRingValidation covers the constructor's rejection paths.
func TestRingValidation(t *testing.T) {
	hash := sampling.NewSeedHash(1)
	if _, err := NewRing(hash, nil); err == nil {
		t.Error("empty node list accepted")
	}
	if _, err := NewRing(hash, []string{"http://a:1", "http://a:1"}); err == nil {
		t.Error("duplicate node address accepted")
	}
	if _, err := NewRing(hash, []string{"http://a:1", ""}); err == nil {
		t.Error("blank node address accepted")
	}
	r, err := NewRing(hash, []string{"solo"})
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 100; key++ {
		if r.Owner(key) != 0 {
			t.Fatalf("single-node ring routed key %d to node %d", key, r.Owner(key))
		}
	}
}
