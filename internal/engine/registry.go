package engine

import (
	"math/bits"
	"math/rand/v2"
	"slices"
)

// registry is a shard's key registry: every key ever routed to the shard,
// in registration (slot) order, with the state a fold reads and writes
// per key. It is two pointer-free arrays, so a fold touches one index
// cell and one record.
//
// reg holds one record per key, slot-major, stride words each:
//
//	key | maskWords mask words | ceil(r/2) heap-position words
//
// The mask words are the instances that have seen the key with a
// positive weight (exact TotalEntries bookkeeping). Each position word
// packs two int32 heap positions, instance 2j in its low half and 2j+1
// in its high half (−1: not retained); past slot's initialisation, pos
// and setPos are the only code that reads or writes them. At r = 2 a
// record is 24 bytes.
//
// idx is a power-of-two linear-probing table of slot+1 (0 = empty), kept
// at most half full, whose probes compare keys against reg. The probe
// hash mixes the key with a per-shard seed drawn at New, so a client
// that picks keys cannot aim them at one probe run.
type registry struct {
	reg []uint64
	idx []uint32
	// activeEntries counts the set mask bits: distinct (instance, key)
	// pairs with positive weight.
	activeEntries int
	seed          uint64
	maskWords     int
	stride        int
}

// minIndex is the index size of an empty registry.
const minIndex = 8

// noPos is a position word with both halves −1.
const noPos = ^uint64(0)

func newRegistry(instances int) registry {
	mw := maskWordsFor(instances)
	return registry{
		idx:       make([]uint32, minIndex),
		seed:      rand.Uint64(),
		maskWords: mw,
		stride:    1 + mw + (instances+1)/2,
	}
}

// len is the number of registered keys.
func (r *registry) len() int { return len(r.reg) / r.stride }

// key returns the key registered at slot.
func (r *registry) key(slot int) uint64 { return r.reg[slot*r.stride] }

// mask returns slot's mask words, aliasing the record.
func (r *registry) mask(slot int) []uint64 {
	at := slot*r.stride + 1
	return r.reg[at : at+r.maskWords]
}

// pos returns the position of slot's entry in instance inst's heap (−1:
// not retained).
func (r *registry) pos(slot uint32, inst int) int32 {
	return int32(r.reg[r.posWord(slot, inst)] >> (32 * (inst & 1)))
}

// setPos records p as the position of slot's entry in instance inst's
// heap.
func (r *registry) setPos(slot uint32, inst int, p int32) {
	w := &r.reg[r.posWord(slot, inst)]
	shift := 32 * (inst & 1)
	*w = *w&^(0xffffffff<<shift) | uint64(uint32(p))<<shift
}

func (r *registry) posWord(slot uint32, inst int) int {
	return int(slot)*r.stride + 1 + r.maskWords + inst>>1
}

// probeHash spreads key over the index: the 64-bit finalizer of
// MurmurHash3 applied to the key xor the shard's seed.
func probeHash(key, seed uint64) uint64 {
	x := key ^ seed
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// probe walks key's probe run and returns the cell where it ends: the one
// holding key's slot+1 (s = slot+1), or the empty cell after the run (s =
// 0), where key would be inserted.
func (r *registry) probe(key uint64) (at int, s uint32) {
	mask := len(r.idx) - 1
	for at = int(probeHash(key, r.seed)) & mask; ; at = (at + 1) & mask {
		s = r.idx[at]
		if s == 0 || r.reg[int(s-1)*r.stride] == key {
			return at, s
		}
	}
}

// slot returns key's slot, registering the key with no instance active
// and no entry retained if it is new. The caller holds the shard lock.
func (r *registry) slot(key uint64) uint32 {
	at, s := r.probe(key)
	if s != 0 {
		return s - 1
	}
	n := r.len()
	if 2*(n+1) > len(r.idx) {
		r.regrow(2 * len(r.idx))
		at, _ = r.probe(key)
	}
	r.idx[at] = uint32(n + 1)
	base := len(r.reg)
	r.reg = slices.Grow(r.reg, r.stride)[:base+r.stride]
	rec := r.reg[base:]
	rec[0] = key
	clear(rec[1 : 1+r.maskWords])
	for j := 1 + r.maskWords; j < len(rec); j++ {
		rec[j] = noPos
	}
	return uint32(n)
}

// regrow rebuilds the index at size cells (a power of two) from reg.
func (r *registry) regrow(size int) {
	r.idx = make([]uint32, size)
	mask := size - 1
	for s := range r.len() {
		at := int(probeHash(r.key(s), r.seed)) & mask
		for r.idx[at] != 0 {
			at = (at + 1) & mask
		}
		r.idx[at] = uint32(s + 1)
	}
}

// presize reserves room for n keys in an empty registry, so a bulk load
// (applyState) grows neither array while it registers them. The caller
// holds the shard lock.
func (r *registry) presize(n int) {
	r.reg = make([]uint64, 0, n*r.stride)
	r.regrow(max(minIndex, 1<<bits.Len(uint(2*n-1))))
}

// activate ORs set into word w of slot's mask and returns how many of its
// bits were newly set. The caller holds the shard lock.
func (r *registry) activate(slot uint32, w int, set uint64) int {
	m := &r.reg[int(slot)*r.stride+1+w]
	added := set &^ *m
	if added == 0 {
		return 0
	}
	*m |= added
	n := bits.OnesCount64(added)
	r.activeEntries += n
	return n
}
