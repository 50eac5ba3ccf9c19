package fault

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// StoreFaults is a fault schedule for a wrapped store.Store. Rates are
// probabilities in [0, 1], drawn per call in a fixed order so a seed
// replays the same schedule.
type StoreFaults struct {
	// AppendFailRate fails Append BEFORE the inner write: nothing
	// reaches the WAL and the engine rejects the update unapplied.
	AppendFailRate float64
	// AppendTornRate fails Append AFTER the inner write landed — the
	// ambiguous torn write: the engine rejects the update, but recovery
	// will replay it from the WAL. Callers tracking an exact oracle must
	// treat these as durable (errors.Is(err, ErrTorn)).
	AppendTornRate float64
	// AppendDelay stalls each Append (slow-disk simulation).
	AppendDelay time.Duration
	// SyncFailRate fails Sync before the inner fsync runs.
	SyncFailRate float64
	// CheckpointFailRate fails Checkpoint before the inner cut runs (the
	// previous checkpoint and the WAL stay authoritative).
	CheckpointFailRate float64
}

// StoreStats counts injected store faults.
type StoreStats struct {
	AppendFails     uint64
	TornAppends     uint64
	SyncFails       uint64
	CheckpointFails uint64
}

// Store wraps an inner store.Store with StoreFaults. It satisfies
// store.Store, so it drops into store.Attach unchanged; Recover and
// Close always pass through (recovery itself is the system under test).
type Store struct {
	inner store.Store
	rng   *Rand
	f     StoreFaults

	appendFails     atomic.Uint64
	tornAppends     atomic.Uint64
	syncFails       atomic.Uint64
	checkpointFails atomic.Uint64
}

// WrapStore wraps inner with schedule f, seeded by seed.
func WrapStore(inner store.Store, seed uint64, f StoreFaults) *Store {
	return &Store{inner: inner, rng: NewRand(seed), f: f}
}

// Stats returns the injected-fault counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		AppendFails:     s.appendFails.Load(),
		TornAppends:     s.tornAppends.Load(),
		SyncFails:       s.syncFails.Load(),
		CheckpointFails: s.checkpointFails.Load(),
	}
}

func (s *Store) Append(batch []engine.Update) error {
	if s.f.AppendDelay > 0 {
		time.Sleep(s.f.AppendDelay)
	}
	fail := s.f.AppendFailRate > 0 && s.rng.Float64() < s.f.AppendFailRate
	torn := s.f.AppendTornRate > 0 && s.rng.Float64() < s.f.AppendTornRate
	if fail {
		s.appendFails.Add(1)
		return fmt.Errorf("fault: append: %w", ErrInjected)
	}
	if err := s.inner.Append(batch); err != nil {
		return err
	}
	if torn {
		s.tornAppends.Add(1)
		return fmt.Errorf("fault: append: %w", ErrTorn)
	}
	return nil
}

func (s *Store) Sync() error {
	if s.f.SyncFailRate > 0 && s.rng.Float64() < s.f.SyncFailRate {
		s.syncFails.Add(1)
		return fmt.Errorf("fault: sync: %w", ErrInjected)
	}
	return s.inner.Sync()
}

func (s *Store) Checkpoint(cut store.Cut) (store.CheckpointStats, error) {
	if s.f.CheckpointFailRate > 0 && s.rng.Float64() < s.f.CheckpointFailRate {
		s.checkpointFails.Add(1)
		return store.CheckpointStats{}, fmt.Errorf("fault: checkpoint: %w", ErrInjected)
	}
	return s.inner.Checkpoint(cut)
}

func (s *Store) Due() <-chan struct{} { return s.inner.Due() }

func (s *Store) Recover(h store.RecoveryHandler) (store.RecoveryStats, error) {
	return s.inner.Recover(h)
}

func (s *Store) Close() error { return s.inner.Close() }
