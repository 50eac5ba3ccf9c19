package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
)

// fileStore is the Store over a local directory. Layout:
//
//	wal-00000001.log         WAL segments, appended in sequence order
//	checkpoint-00000002.ckpt numbered checkpoints (newest wins)
//
// A checkpoint numbered n covers every update in segments < n and
// possibly a prefix of segment n (the cut is taken after rotating to
// segment n, so appends racing the cut land in n and are replayed — an
// idempotent no-op for the ones the cut already saw). Recovery therefore
// replays segments ≥ n on top of checkpoint n.
type fileStore struct {
	dir string
	opt Options
	// syncInterval is the FsyncInterval flush period, the package
	// constant; tests shorten it before Recover starts the flusher.
	syncInterval time.Duration

	// mu guards the append path: the current segment file, its sequence
	// number, the encode scratch, and the per-segment record count.
	mu        sync.Mutex
	seg       *os.File
	segSeq    uint64
	segDirty  bool // written since last fsync
	scratch   []byte
	recovered bool
	closed    bool

	// records[seq] counts live records per retained segment, so pruning
	// can report how many WAL records a checkpoint made obsolete.
	records map[uint64]int

	// ckpts tracks retained checkpoint sequence numbers, ascending.
	ckpts []uint64
	// failed lists the checkpoints that failed validation at recovery;
	// the next prune deletes them, once a newer checkpoint is retained.
	failed []uint64

	// syncStop ends the FsyncInterval flusher.
	syncStop chan struct{}
	syncDone chan struct{}
}

// Open returns the store rooted at directory dir, creating it if needed.
func Open(dir string, opt Options) (Store, error) {
	if dir == "" {
		return nil, errors.New("store: needs a directory path")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &fileStore{dir: dir, opt: opt, syncInterval: syncInterval, records: map[uint64]int{}}, nil
}

// ckptTempPattern names a checkpoint while it is written, before the
// rename that publishes it (os.CreateTemp and filepath.Match syntax).
const ckptTempPattern = "checkpoint-*.tmp"

func (f *fileStore) segPath(seq uint64) string {
	return filepath.Join(f.dir, fmt.Sprintf("wal-%08d.log", seq))
}

func (f *fileStore) ckptPath(seq uint64) string {
	return filepath.Join(f.dir, fmt.Sprintf("checkpoint-%08d.ckpt", seq))
}

// scan lists the numbered files matching prefix/suffix, ascending.
func (f *fileStore) scan(prefix, suffix string) ([]uint64, error) {
	des, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var seqs []uint64
	for _, de := range des {
		name := de.Name()
		var seq uint64
		if _, err := fmt.Sscanf(name, prefix+"%d"+suffix, &seq); err == nil &&
			name == fmt.Sprintf(prefix+"%08d"+suffix, seq) {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// removeTemps deletes checkpoint temp files (ckptTempPattern) that a
// crash between their creation and their rename or removal left behind.
// None of them was ever a checkpoint, and scan skips their names, so
// nothing else would remove them.
func (f *fileStore) removeTemps() error {
	des, err := os.ReadDir(f.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, de := range des {
		if ok, _ := filepath.Match(ckptTempPattern, de.Name()); ok {
			if err := removeFile(filepath.Join(f.dir, de.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// Recover loads the newest valid checkpoint, replays the WAL tail through
// the handler, truncates at the first torn or corrupt record, and opens a
// fresh segment for subsequent appends. It must be called exactly once.
func (f *fileStore) Recover(h RecoveryHandler) (RecoveryStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var stats RecoveryStats
	if f.recovered {
		return stats, errors.New("store: Recover called twice")
	}

	if err := f.removeTemps(); err != nil {
		return stats, err
	}
	ckpts, err := f.scan("checkpoint-", ".ckpt")
	if err != nil {
		return stats, err
	}
	segs, err := f.scan("wal-", ".log")
	if err != nil {
		return stats, err
	}

	// Newest checkpoint that decodes cleanly wins; corrupt or partial ones
	// (a crash mid-rename cannot produce these, but bit rot or manual
	// damage can) fall back to the one before.
	replayFrom := uint64(0)
	var valid []uint64
	for i := len(ckpts) - 1; i >= 0; i-- {
		seq := ckpts[i]
		st, first, cerr := readCheckpoint(f.ckptPath(seq))
		if cerr != nil {
			f.failed = append(f.failed, seq)
			if stats.CheckpointSeq == 0 {
				stats.CheckpointsSkipped++
			}
			continue
		}
		valid = append([]uint64{seq}, valid...)
		if stats.CheckpointSeq == 0 {
			if err := h.Restore(st); err != nil {
				return stats, fmt.Errorf("store: restoring checkpoint %d: %w", seq, err)
			}
			stats.CheckpointSeq = seq
			stats.CheckpointVersion = st.Version
			replayFrom = first
		}
	}
	f.ckpts = valid

	// Replay segments ≥ replayFrom in order. The first invalid record ends
	// the log: the segment is truncated there and any later segments are
	// dropped (they may depend on the lost suffix). Segments older than
	// the oldest retained checkpoint's window are obsolete — a crash
	// between checkpoint rename and prune leaves them behind — and
	// segments inside a fallback checkpoint's window are kept (unreplayed,
	// zero live-record count) in case the next recovery needs them.
	oldestNeeded := replayFrom
	if len(valid) > 0 {
		oldestNeeded = valid[0]
	}
	for i, seq := range segs {
		if seq < oldestNeeded {
			if err := removeFile(f.segPath(seq)); err != nil {
				return stats, err
			}
			continue
		}
		if seq < replayFrom {
			f.records[seq] = 0
			continue
		}
		n, u, complete, rerr := f.replaySegment(seq, h)
		stats.Records += n
		stats.Updates += u
		f.records[seq] = n
		if rerr != nil {
			return stats, rerr
		}
		if !complete {
			stats.Truncated = true
			for _, later := range segs[i+1:] {
				if err := removeFile(f.segPath(later)); err != nil {
					return stats, err
				}
			}
			break
		}
	}

	// Appends go to a fresh segment past everything seen, so recovery
	// never appends into a file whose tail it just judged.
	next := replayFrom + 1
	if len(segs) > 0 && segs[len(segs)-1]+1 > next {
		next = segs[len(segs)-1] + 1
	}
	if err := f.openSegment(next); err != nil {
		return stats, err
	}
	f.recovered = true

	if f.opt.Fsync == FsyncInterval {
		f.syncStop = make(chan struct{})
		f.syncDone = make(chan struct{})
		go f.syncLoop()
	}
	return stats, nil
}

// replaySegment feeds every valid record to the handler and reports
// whether the segment was cleanly terminated; a torn or corrupt tail is
// truncated in place at the scanner's last good boundary. A segment left
// without a valid magic is deleted instead, so no later boot judges it
// torn again and drops the segments written after it. One shorter than
// the magic is a crash between openSegment's create and its magic write:
// it never held a record, so it is deleted and reported complete.
func (f *fileStore) replaySegment(seq uint64, h RecoveryHandler) (records, updates int, complete bool, err error) {
	path := f.segPath(seq)
	file, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, 0, false, fmt.Errorf("store: %w", err)
	}
	defer file.Close()
	fi, err := file.Stat()
	if err != nil {
		return 0, 0, false, fmt.Errorf("store: %w", err)
	}
	if fi.Size() < int64(len(walMagic)) {
		return 0, 0, true, removeFile(path)
	}

	sc := newFrameScanner(file, walMagic, maxRecordBytes)
	defer sc.Release()
	for {
		batch, serr := sc.Next()
		if serr == io.EOF {
			return records, updates, true, nil
		}
		if serr != nil {
			if sc.Offset() == 0 {
				err = removeFile(path)
			} else if terr := file.Truncate(sc.Offset()); terr != nil {
				err = fmt.Errorf("store: truncating %s: %w", path, terr)
			}
			return records, updates, false, err
		}
		if err := h.Replay(batch); err != nil {
			return records, updates, false, fmt.Errorf("store: replaying %s: %w", path, err)
		}
		records++
		updates += len(batch)
	}
}

// openSegment starts segment seq for appending (creating it with the
// magic header) and makes it current.
func (f *fileStore) openSegment(seq uint64) error {
	file, err := os.OpenFile(f.segPath(seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := file.Write([]byte(walMagic)); err != nil {
		file.Close()
		return fmt.Errorf("store: %w", err)
	}
	f.seg, f.segSeq = file, seq
	f.records[seq] = 0
	return nil
}

// Append writes one batch as a single framed record, flushing per the
// fsync policy. It is the engine's write-ahead Journal: the engine calls
// it before applying the batch, so an error here means nothing was
// applied.
func (f *fileStore) Append(batch []engine.Update) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.appendable(); err != nil {
		return err
	}
	buf := AppendFrame(f.scratch[:0], batch)
	f.scratch = buf[:0]
	if _, err := f.seg.Write(buf); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	f.records[f.segSeq]++
	f.segDirty = true
	if f.opt.Fsync == FsyncAlways {
		return f.syncLocked()
	}
	return nil
}

func (f *fileStore) appendable() error {
	if f.closed {
		return errors.New("store: closed")
	}
	if !f.recovered {
		return errors.New("store: Recover must run before appends")
	}
	return nil
}

// Sync forces the current segment to stable storage.
func (f *fileStore) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.seg == nil {
		return nil
	}
	return f.syncLocked()
}

func (f *fileStore) syncLocked() error {
	if !f.segDirty {
		return nil
	}
	if err := f.seg.Sync(); err != nil {
		return fmt.Errorf("store: wal fsync: %w", err)
	}
	f.segDirty = false
	return nil
}

func (f *fileStore) syncLoop() {
	defer close(f.syncDone)
	t := time.NewTicker(f.syncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = f.Sync() // next Append or Close surfaces a persistent error
		case <-f.syncStop:
			return
		}
	}
}

// Checkpoint persists a state cut atomically (temp file + fsync +
// rename + dir fsync) and prunes WAL segments and older checkpoints it
// makes obsolete. Ordering is the crux: the WAL is rotated to a fresh
// segment FIRST, and only then is cut() invoked. A batch is journaled and
// applied under the read side of the engine's cut barrier and the cut
// takes its write side, so every record in the closed segments is fully
// applied when the cut reads the engine — the closed tail can be pruned
// with nothing lost. Appends racing the cut land in the new segment; the
// cut may already include some of them, and replaying those on recovery
// is an idempotent no-op under max semantics.
func (f *fileStore) Checkpoint(cut func() *engine.State) (CheckpointStats, error) {
	f.mu.Lock()
	if err := f.appendable(); err != nil {
		f.mu.Unlock()
		return CheckpointStats{}, err
	}
	if err := f.rotateLocked(); err != nil {
		f.mu.Unlock()
		return CheckpointStats{}, err
	}
	first := f.segSeq
	f.mu.Unlock()
	// The cut happens outside the append lock: it waits on the engine's
	// cut barrier, whose read side in-flight appenders hold while waiting
	// for the append lock — cutting under f.mu would deadlock.
	st := cut()

	stats := CheckpointStats{Seq: first, Version: st.Version, Keys: len(st.Keys)}
	for _, ents := range st.Entries {
		stats.RetainedEntries += len(ents)
	}
	data := make([]byte, 0, 16+stateSize(st))
	data = append(data, ckptMagic...)
	data = binary.LittleEndian.AppendUint64(data, first)
	data = appendState(data, st)
	stats.Bytes = len(data)

	path := f.ckptPath(first)
	tmp, err := os.CreateTemp(f.dir, ckptTempPattern)
	if err != nil {
		return stats, fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return stats, fmt.Errorf("store: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return stats, fmt.Errorf("store: checkpoint fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return stats, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return stats, fmt.Errorf("store: checkpoint rename: %w", err)
	}
	if err := syncDir(f.dir); err != nil {
		return stats, err
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	f.ckpts = append(f.ckpts, first)
	dropped, err := f.pruneLocked()
	stats.WALRecordsDropped = dropped
	return stats, err
}

// rotateLocked finishes the current segment (flushing it durable — the
// checkpoint that follows claims everything before it is covered) and
// opens the next one.
func (f *fileStore) rotateLocked() error {
	if err := f.syncLocked(); err != nil {
		return err
	}
	if err := f.seg.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return f.openSegment(f.segSeq + 1)
}

// pruneLocked retains the newest keepCheckpoints checkpoints and deletes
// WAL segments no retained checkpoint needs, reporting how many WAL
// records were dropped.
func (f *fileStore) pruneLocked() (int, error) {
	for len(f.ckpts) > keepCheckpoints {
		seq := f.ckpts[0]
		if err := removeFile(f.ckptPath(seq)); err != nil {
			return 0, err
		}
		f.ckpts = f.ckpts[1:]
	}
	for _, seq := range f.failed {
		if err := removeFile(f.ckptPath(seq)); err != nil {
			return 0, err
		}
	}
	f.failed = nil
	if len(f.ckpts) == 0 {
		return 0, nil
	}
	oldestNeeded := f.ckpts[0]
	dropped := 0
	for seq, n := range f.records {
		if seq >= oldestNeeded || seq == f.segSeq {
			continue
		}
		if err := removeFile(f.segPath(seq)); err != nil {
			return dropped, err
		}
		dropped += n
		delete(f.records, seq)
	}
	return dropped, nil
}

// Close flushes the WAL and releases the backend. It does not write a
// final checkpoint — Persistence.Close layers that on top.
func (f *fileStore) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	stop := f.syncStop
	f.mu.Unlock()
	if stop != nil {
		close(stop)
		<-f.syncDone
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seg == nil {
		return nil
	}
	err := f.syncLocked()
	if cerr := f.seg.Close(); err == nil {
		err = cerr
	}
	f.seg = nil
	return err
}

// readCheckpoint loads and validates one checkpoint file, returning the
// state and the first WAL segment recovery must replay.
func readCheckpoint(path string) (*engine.State, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < 16 || string(data[:8]) != ckptMagic {
		return nil, 0, fmt.Errorf("store: %s: bad checkpoint magic", path)
	}
	first := binary.LittleEndian.Uint64(data[8:16])
	st, err := DecodeState(data[16:])
	if err != nil {
		return nil, 0, fmt.Errorf("store: %s: %w", path, err)
	}
	return st, first, nil
}

// removeFile deletes path; a file already gone is not an error.
func removeFile(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: dir fsync: %w", err)
	}
	return nil
}
