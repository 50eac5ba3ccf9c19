package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
)

// fileStore is the Store over a local directory. Layout:
//
//	wal-00000001.log         WAL segments, appended in sequence order
//	checkpoint-00000002.ckpt numbered checkpoints (newest valid wins)
//
// A checkpoint numbered n covers every update in segments < n and
// possibly a prefix of segment n (the cut is taken after rotating to
// segment n, so appends racing the cut land in n and are replayed — an
// idempotent no-op for the ones the cut already saw). Recovery therefore
// replays segments ≥ n on top of checkpoint n. A sketch-only checkpoint
// names a full one, its base, whose key registry it shares: while the
// engine lives its registry only grows, so an unchanged registry size
// means an identical registry.
type fileStore struct {
	dir string
	opt Options
	// syncInterval is the FsyncInterval flush period, the package
	// constant; tests shorten it before Recover starts the flusher.
	syncInterval time.Duration
	// budgetFloor is walBudgetFloor; tests shrink it before Recover.
	budgetFloor int64

	// mu guards the append path: the current segment file, its sequence
	// number, the encode scratch, the per-segment record count and the
	// WAL volume since the last rotation.
	mu        sync.Mutex
	seg       *os.File
	segSeq    uint64
	segDirty  bool // written since last fsync
	scratch   []byte
	recovered bool
	closed    bool

	// walBytes counts the bytes appended since the last rotation; past
	// budget every append offers a signal on due (capacity 1).
	walBytes int64
	budget   int64
	due      chan struct{}

	// records[seq] counts live records per retained segment, so pruning
	// can report how many WAL records a checkpoint made obsolete.
	records map[uint64]int

	// ckpts tracks the retained checkpoints, ascending.
	ckpts []ckptRef
	// failed lists the checkpoints that failed validation at recovery;
	// the next prune deletes them, once a newer checkpoint is retained.
	failed []uint64
	// base is the newest full checkpoint whose registry the engine holds
	// (zero for none yet), and baseReg that registry's size: the
	// checkpoint a sketch-only one names, and the size it must match.
	base, baseReg uint64

	// syncStop ends the FsyncInterval flusher.
	syncStop chan struct{}
	syncDone chan struct{}
}

// ckptRef is one retained checkpoint: its sequence number and its base
// (zero for a full checkpoint).
type ckptRef struct{ seq, base uint64 }

// Open returns the store rooted at directory dir, creating it if needed.
func Open(dir string, opt Options) (Store, error) {
	if dir == "" {
		return nil, errors.New("store: needs a directory path")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &fileStore{dir: dir, opt: opt, syncInterval: syncInterval, budgetFloor: walBudgetFloor,
		due: make(chan struct{}, 1), records: map[uint64]int{}}, nil
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

	replayFrom, err := f.restoreNewest(ckpts, h, &stats)
	if err != nil {
		return stats, err
	}

	// Replay segments ≥ replayFrom in order. The first invalid record ends
	// the log: the segment is truncated there and any later segments are
	// dropped (they may depend on the lost suffix). Segments older than
	// the oldest retained checkpoint's window are obsolete — a crash
	// between checkpoint rename and prune leaves them behind — and
	// segments inside a fallback checkpoint's window are kept (unreplayed,
	// zero live-record count) in case the next recovery needs them.
	oldestNeeded := replayFrom
	if len(f.ckpts) > 0 {
		oldestNeeded = f.ckpts[0].seq
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

// restoreNewest restores the newest checkpoint of ckpts that validates
// through h and returns its replay horizon; it records the valid ones in
// f.ckpts, the failed ones in f.failed, and the restored one's base and
// budget. Corrupt or partial checkpoints (a crash mid-rename cannot
// produce these, but bit rot or manual damage can) fall back to the one
// before, and so does a sketch-only one whose base is not a valid full
// checkpoint. Each file is read once, a base with the first checkpoint
// that names it; only files read until one is restored are decoded, the
// older ones are checked by their bytes alone, and every decoded state is
// garbage once this returns, before the WAL replay.
func (f *fileStore) restoreNewest(ckpts []uint64, h RecoveryHandler, stats *RecoveryStats) (replayFrom uint64, err error) {
	files := make(map[uint64]*ckptFile, len(ckpts))
	read := func(seq uint64) *ckptFile {
		c, ok := files[seq]
		if !ok {
			c = readCheckpoint(f.ckptPath(seq), stats.CheckpointSeq == 0)
			files[seq] = c
		}
		return c
	}
	f.budget = f.walBudget(0)
	for i := len(ckpts) - 1; i >= 0; i-- {
		seq := ckpts[i]
		c := read(seq)
		var base *ckptFile
		if c.err == nil && c.base != 0 {
			if base = read(c.base); base.err != nil || base.base != 0 {
				c.err = fmt.Errorf("store: checkpoint %d: base %d is not a valid full checkpoint", seq, c.base)
			}
		}
		if c.err != nil {
			f.failed = append(f.failed, seq)
			if stats.CheckpointSeq == 0 {
				stats.CheckpointsSkipped++
			}
			continue
		}
		f.ckpts = append([]ckptRef{{seq, c.base}}, f.ckpts...)
		if stats.CheckpointSeq != 0 {
			continue
		}
		st, full, baseSeq := c.st, c, seq
		if base != nil {
			st.Keys, st.Masks, full, baseSeq = base.st.Keys, base.st.Masks, base, c.base
		}
		reg, err := h.Restore(st)
		if err != nil {
			return 0, fmt.Errorf("store: restoring checkpoint %d: %w", seq, err)
		}
		stats.CheckpointSeq, stats.CheckpointBase, stats.CheckpointVersion = seq, c.base, st.Version
		replayFrom = c.first
		f.base, f.baseReg, f.budget = baseSeq, reg, f.walBudget(full.bytes)
	}
	return replayFrom, nil
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
	f.seg, f.segSeq, f.walBytes = file, seq, 0
	f.records[seq] = 0
	return nil
}

// walBudget is the WAL volume past which the store raises Due, given the
// newest full checkpoint's size in bytes.
func (f *fileStore) walBudget(fullBytes int) int64 {
	return max(f.budgetFloor, walBudgetPerFull*int64(fullBytes))
}

// Due is signalled once the WAL appended since the last checkpoint's
// rotation exceeds the budget, and again by every later append until a
// checkpoint rotates.
func (f *fileStore) Due() <-chan struct{} { return f.due }

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
	if f.walBytes += int64(len(buf)); f.walBytes > f.budget {
		select {
		case f.due <- struct{}{}:
		default:
		}
	}
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
// is an idempotent no-op under max semantics. Unless walBudgetPerFull
// retained checkpoints name the base already, the cut is asked to leave
// out a registry of the base's size, and one that does is sketch-only.
func (f *fileStore) Checkpoint(cut Cut) (CheckpointStats, error) {
	f.mu.Lock()
	if err := f.appendable(); err != nil {
		f.mu.Unlock()
		return CheckpointStats{}, err
	}
	closed, dirty := f.seg, f.segDirty
	if err := f.openSegment(f.segSeq + 1); err != nil {
		f.mu.Unlock()
		return CheckpointStats{}, err
	}
	f.segDirty = false
	first, base, known, chain := f.segSeq, f.base, uint64(0), 0
	for _, c := range f.ckpts {
		if c.base == base {
			chain++
		}
	}
	if base != 0 && chain < walBudgetPerFull {
		known = f.baseReg
	}
	f.mu.Unlock()
	// The closed segment is flushed outside the append lock, so no
	// appender waits on its fsync; it is durable before the checkpoint
	// that claims it is renamed into place.
	if err := closeSegment(closed, dirty); err != nil {
		return CheckpointStats{}, err
	}
	// The cut happens outside the append lock too: it waits on the
	// engine's cut barrier, whose read side in-flight appenders hold while
	// waiting for the append lock — cutting under f.mu would deadlock.
	st, reg := cut(known)
	if known == 0 || reg != known {
		base = 0
	}

	stats := CheckpointStats{Seq: first, Version: st.Version, Base: base, Keys: len(st.Keys)}
	for _, ents := range st.Entries {
		stats.RetainedEntries += len(ents)
	}
	data := make([]byte, 0, ckptHeaderBytes+stateSize(st))
	data = appendCheckpointHeader(data, first, base)
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
	f.ckpts = append(f.ckpts, ckptRef{first, base})
	if base == 0 {
		f.base, f.baseReg, f.budget = first, reg, f.walBudget(len(data))
	}
	dropped, err := f.pruneLocked()
	stats.WALRecordsDropped = dropped
	return stats, err
}

// closeSegment finishes a segment a rotation closed, flushing it durable
// first when it was written since its last fsync: the checkpoint that
// follows claims everything in it is covered.
func closeSegment(seg *os.File, dirty bool) error {
	if dirty {
		if err := seg.Sync(); err != nil {
			seg.Close()
			return fmt.Errorf("store: wal fsync: %w", err)
		}
	}
	if err := seg.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// pruneLocked retains the newest keepCheckpoints full checkpoints and the
// sketch-only ones newer than the newest full one (all of which name it),
// deletes every other checkpoint and the WAL segments no retained
// checkpoint needs, and reports how many WAL records were dropped.
func (f *fileStore) pruneLocked() (int, error) {
	var keep []ckptRef
	fulls := 0
	for i := len(f.ckpts) - 1; i >= 0; i-- {
		c := f.ckpts[i]
		if c.base == 0 {
			fulls++
		}
		if fulls == 0 || c.base == 0 && fulls <= keepCheckpoints {
			keep = append(keep, c)
		} else if err := removeFile(f.ckptPath(c.seq)); err != nil {
			return 0, err
		}
	}
	slices.Reverse(keep)
	f.ckpts = keep
	for _, seq := range f.failed {
		if err := removeFile(f.ckptPath(seq)); err != nil {
			return 0, err
		}
	}
	f.failed = nil
	if len(f.ckpts) == 0 {
		return 0, nil
	}
	oldestNeeded := f.ckpts[0].seq
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

// ckptFile is one decoded checkpoint file: the first WAL segment
// recovery replays after it, its base (zero for a full checkpoint), its
// state (without a registry when sketch-only), its size, and why it
// failed validation, if it did.
type ckptFile struct {
	first, base uint64
	st          *engine.State
	bytes       int
	err         error
}

// readCheckpoint loads and validates one checkpoint file. A MONESTK1
// file, written before checkpoints carried a base and a header checksum,
// reads as a full checkpoint whose horizon nothing checks. Without decode
// the state is checked only by the bytes DecodeState checks before it
// parses (magic, length, CRC) and st stays nil: how recovery checks the
// fallbacks older than the checkpoint it restored.
func readCheckpoint(path string, decode bool) *ckptFile {
	c := &ckptFile{}
	data, err := os.ReadFile(path)
	if err != nil {
		c.err = err
		return c
	}
	c.bytes = len(data)
	var body []byte
	switch {
	case len(data) >= ckptHeaderBytes && string(data[:8]) == ckptMagic:
		if crc32.ChecksumIEEE(data[:ckptHeaderBytes-4]) != binary.LittleEndian.Uint32(data[ckptHeaderBytes-4:]) {
			c.err = fmt.Errorf("store: %s: checkpoint header checksum mismatch", path)
			return c
		}
		c.first = binary.LittleEndian.Uint64(data[8:])
		c.base = binary.LittleEndian.Uint64(data[16:])
		body = data[ckptHeaderBytes:]
	case len(data) >= 16 && string(data[:8]) == ckptMagicV1:
		c.first = binary.LittleEndian.Uint64(data[8:])
		body = data[16:]
	default:
		c.err = fmt.Errorf("store: %s: bad checkpoint magic", path)
		return c
	}
	if decode {
		c.st, err = DecodeState(body)
	} else {
		_, err = statePayload(body)
	}
	if err != nil {
		c.err = fmt.Errorf("store: %s: %w", path, err)
	}
	return c
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
