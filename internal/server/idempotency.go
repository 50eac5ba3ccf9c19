package server

import (
	"math"
	"sync"

	"repro/internal/engine"
)

// Write idempotency: a request carrying an Idempotency-Key header
// registers a digest per batch (stream frame, or the one /v1/ingest body)
// as it applies. When the SAME key replays the request — the cluster
// coordinator retrying a routed share whose response was lost in flight —
// batches whose (position, digest) pair is already recorded are skipped:
// not re-applied, not charged to the rate limiter, not counted by Ingests
// or the wire counters. Retried batches are thus exact in the COUNTERS,
// not just the estimates (which max-weight union always kept exact). A
// colliding key with different content fails the digest match and
// applies normally.

// maxIdemKeys bounds the remembered keys (LRU eviction); maxIdemFrames
// bounds the digests per key — frames beyond it always re-apply (safe:
// folds are idempotent; only counter exactness degrades).
const (
	maxIdemKeys   = 1024
	maxIdemFrames = 1024
)

// idemRecord is one key's applied-frame digests.
type idemRecord struct {
	mu      sync.Mutex
	digests []uint64
}

// seen reports whether frame seq with digest d is already applied.
func (r *idemRecord) seen(seq int, d uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return seq < len(r.digests) && r.digests[seq] == d
}

// applied records frame seq's digest after a successful apply. seq never
// exceeds len(digests): skips only happen below it and each apply
// extends it by at most one.
func (r *idemRecord) applied(seq int, d uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case seq < len(r.digests):
		r.digests[seq] = d
	case seq == len(r.digests) && seq < maxIdemFrames:
		r.digests = append(r.digests, d)
	}
}

// idemStore maps idempotency keys to their records, bounded by LRU.
type idemStore struct {
	mu   sync.Mutex
	recs *lruTable[*idemRecord]
}

func newIdemStore() *idemStore {
	return &idemStore{recs: newLRUTable[*idemRecord](maxIdemKeys)}
}

// get returns (creating if needed) the record for key.
func (s *idemStore) get(key string) *idemRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs.touch(key, func() *idemRecord { return &idemRecord{} })
}

// frameDigest fingerprints one decoded frame (FNV-1a over the update
// tuples). Position + digest identifies a replayed frame; it is not a
// cryptographic commitment — the threat model is a coordinator retry,
// not an adversary forging frames.
func frameDigest(batch []engine.Update) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(len(batch)))
	for _, u := range batch {
		mix(uint64(u.Instance))
		mix(u.Key)
		mix(math.Float64bits(u.Weight))
	}
	return h
}
