package store

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/engine"
)

// Persistence ties one engine to one Store: Attach recovers the engine
// from the store and wires the store in as the engine's write-ahead
// journal; Checkpoint cuts and persists the live state, the store
// choosing full or sketch-only; Close writes a final checkpoint and
// releases the store (the
// graceful-shutdown path). It never checkpoints on its own: its owner
// decides when, Due telling it the WAL has grown.
type Persistence struct {
	eng *engine.Engine
	st  Store
	// mu serializes checkpoints: two concurrent cuts would race for the
	// rotation-then-cut ordering the store's pruning relies on.
	mu     sync.Mutex
	closed bool
}

// ErrClosed is Checkpoint's answer once Close has begun: Close writes the
// final checkpoint itself, so a checkpoint refused this way loses nothing.
var ErrClosed = errors.New("store: persistence closed")

// recoveryTarget replays a store's contents into a bare engine: the
// checkpoint through RestoreState, the WAL tail through the engine's
// shard-parallel Replay.
type recoveryTarget struct {
	eng *engine.Engine
	rep *engine.Replay
}

// Restore restores st and returns the registry size the engine then
// holds, as engine.SketchState counts it.
func (t recoveryTarget) Restore(st *engine.State) (uint64, error) {
	if err := t.eng.RestoreState(st); err != nil {
		return 0, err
	}
	s := t.eng.Stats()
	return uint64(s.Keys + s.ActiveEntries), nil
}

func (t recoveryTarget) Replay(batch []engine.Update) error {
	if err := t.rep.Add(batch); err != nil {
		return fmt.Errorf("replaying %d updates: %w", len(batch), err)
	}
	return nil
}

// recoverEngine recovers st's contents into eng and returns once every
// replayed record is folded and the replay workers have exited, on
// success and on error alike.
func recoverEngine(st Store, eng *engine.Engine) (RecoveryStats, error) {
	rep := eng.Replay()
	defer rep.Wait()
	return st.Recover(recoveryTarget{eng, rep})
}

// Attach recovers the store's contents into the engine (which must be
// freshly constructed) and attaches the store as the engine's journal.
// On return the engine's Snapshot() is bit-identical to the pre-crash
// engine's at the last durable point, and every subsequent ingest is
// journaled. The engine must not receive traffic until Attach returns.
func Attach(eng *engine.Engine, st Store) (*Persistence, RecoveryStats, error) {
	stats, err := recoverEngine(st, eng)
	if err != nil {
		return nil, stats, err
	}
	eng.SetJournal(st)
	return &Persistence{eng: eng, st: st}, stats, nil
}

// Checkpoint persists a consistent cut of the engine and truncates the
// WAL it covers; the store decides whether the cut carries the key
// registry (see Store). Safe to call concurrently with ingests and with
// itself.
func (p *Persistence) Checkpoint() (CheckpointStats, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return CheckpointStats{}, ErrClosed
	}
	return p.st.Checkpoint(p.eng.SketchState)
}

// Due is signalled once the WAL journaled since the last checkpoint
// exceeds the store's budget (see Store).
func (p *Persistence) Due() <-chan struct{} { return p.st.Due() }

// Sync forces journaled updates to stable storage (the fsync policy
// drives it in normal operation; the bench's store.fsync layer times it).
func (p *Persistence) Sync() error { return p.st.Sync() }

// Close writes a final checkpoint and closes the store. The caller must
// have stopped ingest traffic (monestd drains HTTP first); after Close
// the WAL tail is empty, so the next boot restores the checkpoint and
// replays nothing.
func (p *Persistence) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	_, cerr := p.st.Checkpoint(p.eng.SketchState)
	if err := p.st.Close(); err != nil {
		if cerr != nil {
			return fmt.Errorf("%w (and close: %v)", cerr, err)
		}
		return err
	}
	return cerr
}
