// Package store is the engine's persistence subsystem: an append-only
// write-ahead log of accepted updates plus compact sketch checkpoints,
// behind the Store interface (Open returns the directory-backed
// implementation; internal/fault wraps it to inject failures).
//
// The durability model leans on two sketch properties. First, the
// sampled state is tiny (k+1 retained entries per instance), so a
// checkpoint that leaves out an unchanged key registry costs a few
// kilobytes, and the store asks for one whenever the WAL written since
// the last grows past a budget: recovery replays about one budget, not
// one checkpoint interval; at most walBudgetPerFull of those name one
// full checkpoint, which bounds the files the store keeps. Second, the
// sketch fold is commutative and idempotent under max semantics, so
// recovery can replay a WAL tail that overlaps the checkpoint cut —
// re-applying an already checkpointed update is a dominated-duplicate
// no-op. The file store
// exploits this by rotating to a fresh WAL segment before cutting the
// checkpoint: no coordination between appenders and the checkpointer is
// needed beyond the rotation itself.
//
// Recovery = newest valid checkpoint (falling back to older ones when the
// newest is missing or corrupt) + replay of the WAL segments it points
// at, truncating at the first torn or corrupt record. The Persistence
// type (persist.go) wires all of this to an engine.
package store

import (
	"fmt"
	"time"

	"repro/internal/engine"
)

// FsyncPolicy says when WAL appends are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs after every append: no accepted update is ever
	// lost, at the cost of a disk flush per batch.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a background timer (every 100ms):
	// a crash loses at most one interval of updates.
	FsyncInterval
	// FsyncNever leaves flushing to the OS: fastest, loses whatever the
	// page cache held on a power failure (a clean process crash loses
	// nothing — the writes are already in the kernel).
	FsyncNever
)

// ParseFsyncPolicy maps the -fsync flag values to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (have always, interval, never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// Options tune a store.
type Options struct {
	// Fsync is the WAL flush policy. Default FsyncAlways.
	Fsync FsyncPolicy
}

// syncInterval is the background flush period under FsyncInterval.
const syncInterval = 100 * time.Millisecond

// keepCheckpoints is how many most-recent full checkpoints a store
// retains; the older one is the fallback when the newest fails
// validation. Sketch-only checkpoints newer than the newest full one are
// retained too.
const keepCheckpoints = 2

// The WAL budget: once the WAL appended since the last checkpoint's
// rotation exceeds max(walBudgetFloor, walBudgetPerFull × the newest full
// checkpoint's bytes), the store raises Due. The floor keeps checkpoints
// of small states from coming every few appends; the multiple bounds what
// a checkpoint costs to what it saves replaying, even if the registry
// grew and it must be full. walBudgetPerFull is also how many sketch-only
// checkpoints may name one base before the next must be full.
const (
	walBudgetFloor   = 4 << 20
	walBudgetPerFull = 4
)

// RecoveryHandler receives a store's recovered contents in order: Restore
// at most once (absent when no valid checkpoint exists), then Replay per
// valid WAL record. An error from either aborts recovery. Restore returns
// the registry size the restored state holds (engine.SketchState's reg),
// which later sketch-only checkpoints compare against.
type RecoveryHandler interface {
	Restore(st *engine.State) (reg uint64, err error)
	Replay(batch []engine.Update) error
}

// Cut takes a consistent state cut with its registry size, leaving the
// key registry out when that size equals knownReg (engine.SketchState's
// contract; knownReg 0 always keeps it).
type Cut func(knownReg uint64) (st *engine.State, reg uint64)

// RecoveryStats summarizes what Recover found.
type RecoveryStats struct {
	// CheckpointSeq and CheckpointVersion identify the checkpoint restored
	// from (zero when none was found).
	CheckpointSeq     uint64 `json:"checkpoint_seq"`
	CheckpointVersion uint64 `json:"checkpoint_version"`
	// CheckpointBase is the full checkpoint whose registry a sketch-only
	// restored checkpoint took (zero for a full one).
	CheckpointBase uint64 `json:"checkpoint_base,omitempty"`
	// CheckpointsSkipped counts newer checkpoints that existed but failed
	// validation (a sketch-only one also when its base did) and were
	// passed over.
	CheckpointsSkipped int `json:"checkpoints_skipped,omitempty"`
	// Records and Updates count the replayed WAL tail.
	Records int `json:"records"`
	Updates int `json:"updates"`
	// Truncated reports that a torn or corrupt record was found and the
	// WAL was cut off there.
	Truncated bool `json:"truncated,omitempty"`
}

// CheckpointStats summarizes one written checkpoint.
type CheckpointStats struct {
	// Seq is the checkpoint's sequence number (monotone per store).
	Seq uint64 `json:"seq"`
	// Version is the engine mutation version at the cut.
	Version uint64 `json:"version"`
	// Base is the full checkpoint whose registry this sketch-only one
	// leaves out, zero for a full checkpoint.
	Base uint64 `json:"base,omitempty"`
	// Keys and RetainedEntries size the cut written (a sketch-only one
	// holds no keys).
	Keys            int `json:"keys"`
	RetainedEntries int `json:"retained_entries"`
	// Bytes is the encoded checkpoint size on disk.
	Bytes int `json:"bytes"`
	// WALRecordsDropped counts WAL records made obsolete (pruned) by this
	// checkpoint.
	WALRecordsDropped int `json:"wal_records_dropped"`
}

// Store persists an engine's stream. Append/Sync serve the write-ahead
// log (Append is safe for concurrent use — it is the engine's Journal,
// called once per ingest batch under the engine's cut barrier).
// Checkpoint atomically persists a sketch state and prunes the WAL
// prefix it covers; the state is produced by the cut callback, which the
// store invokes only AFTER it has sealed the WAL position the checkpoint
// claims to cover (the file store rotates to a fresh segment first) —
// callers must not cut early, or updates journaled between the cut and
// the seal are pruned unreplayed. The store picks the kind: sketch-only
// (no key registry) while its base's registry has not grown and fewer
// than walBudgetPerFull sketch-only checkpoints name that base. Due
// delivers a signal (buffered, never blocking the appender) once the WAL
// appended since the last checkpoint passes the store's budget; the store
// never checkpoints on its own. Recover must be called exactly once,
// before any Append. Close flushes and releases the store without
// checkpointing.
type Store interface {
	engine.Journal
	Sync() error
	Checkpoint(cut Cut) (CheckpointStats, error)
	Due() <-chan struct{}
	Recover(h RecoveryHandler) (RecoveryStats, error)
	Close() error
}
