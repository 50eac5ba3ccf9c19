package server

import "container/list"

// lruTable is the one bounded string-keyed table behind the server's
// per-client and per-key state (rate-limit buckets, idempotency records):
// at most max entries, the least-recently-used one evicted to admit a new
// key. Losing an entry is always safe for its users — an evicted client
// or key simply starts fresh. Not safe for concurrent use; the owner
// holds its own lock.
type lruTable[V any] struct {
	max   int
	order *list.List // front = most recently used; values are lruEntry[V]
	byKey map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRUTable[V any](max int) *lruTable[V] {
	return &lruTable[V]{max: max, order: list.New(), byKey: make(map[string]*list.Element)}
}

// touch returns key's value, marking it most recently used; a missing key
// is created with fresh() after evicting the least-recently-used entry
// when the table is full.
func (t *lruTable[V]) touch(key string, fresh func() V) V {
	if el, ok := t.byKey[key]; ok {
		t.order.MoveToFront(el)
		return el.Value.(lruEntry[V]).val
	}
	if t.order.Len() >= t.max {
		delete(t.byKey, t.order.Remove(t.order.Back()).(lruEntry[V]).key)
	}
	v := fresh()
	t.byKey[key] = t.order.PushFront(lruEntry[V]{key: key, val: v})
	return v
}
