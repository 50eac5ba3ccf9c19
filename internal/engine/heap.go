package engine

// bkHeap keeps the cap smallest-rank entries of instance inst seen so
// far: a max-heap on rank (root = largest retained rank, the eviction
// candidate). Each entry's registry slot rides in slots, parallel to es,
// and the slot's registry record holds its heap index (reg.pos, −1: not
// retained), so a max-weight update finds and decreases an entry's rank
// in place on the record line the fold already touched. A hand-rolled
// heap avoids container/heap's interface allocations on the ingest hot
// path.
type bkHeap struct {
	cap   int
	inst  int
	reg   *registry
	es    []bkEntry
	slots []uint32
}

// bkEntry is one retained (key, weight, rank) triple.
type bkEntry struct {
	key    uint64
	weight float64
	rank   float64
}

// update folds an observation of the key registered at slot in under
// max-weight semantics: a retained key keeps its largest weight (= smallest
// rank); a new key is admitted if there is room or it outranks the current
// eviction candidate. Ranks only decrease over an entry's lifetime, so
// eviction is permanent unless the key itself later arrives with a larger
// weight. It reports whether the heap changed — dominated duplicates and
// non-admitted keys are no-ops that must not invalidate cached snapshots.
func (h *bkHeap) update(slot uint32, key uint64, w, rank float64) bool {
	if i := h.reg.pos(slot, h.inst); i >= 0 {
		if w <= h.es[i].weight {
			return false
		}
		h.es[i].weight = w
		h.es[i].rank = rank
		h.down(int(i)) // rank decreased: sink in the max-heap
		return true
	}
	if len(h.es) < h.cap {
		h.es = append(h.es, bkEntry{key: key, weight: w, rank: rank})
		h.slots = append(h.slots, slot)
		h.reg.setPos(slot, h.inst, int32(len(h.es)-1))
		h.up(len(h.es) - 1)
		return true
	}
	if rank >= h.es[0].rank {
		return false
	}
	h.reg.setPos(h.slots[0], h.inst, -1)
	h.es[0] = bkEntry{key: key, weight: w, rank: rank}
	h.slots[0] = slot
	h.reg.setPos(slot, h.inst, 0)
	h.down(0)
	return true
}

func (h *bkHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.es[p].rank >= h.es[i].rank {
			return
		}
		h.swap(p, i)
		i = p
	}
}

func (h *bkHeap) down(i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h.es) && h.es[l].rank > h.es[m].rank {
			m = l
		}
		if r := 2*i + 2; r < len(h.es) && h.es[r].rank > h.es[m].rank {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *bkHeap) swap(i, j int) {
	h.es[i], h.es[j] = h.es[j], h.es[i]
	h.slots[i], h.slots[j] = h.slots[j], h.slots[i]
	h.reg.setPos(h.slots[i], h.inst, int32(i))
	h.reg.setPos(h.slots[j], h.inst, int32(j))
}
