package store

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sampling"
)

func newEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Config{Instances: 3, K: 8, Shards: 4, Hash: sampling.NewSeedHash(7)})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randomUpdates(rng *rand.Rand, n int) []engine.Update {
	ups := make([]engine.Update, n)
	for i := range ups {
		ups[i] = engine.Update{
			Instance: rng.Intn(3),
			Key:      uint64(rng.Intn(500)),
			Weight:   rng.Float64() * 10,
		}
	}
	return ups
}

func attach(t *testing.T, e *engine.Engine, dir string, opt Options) (*Persistence, RecoveryStats) {
	t.Helper()
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	p, stats, err := Attach(e, st)
	if err != nil {
		t.Fatal(err)
	}
	return p, stats
}

func listFiles(t *testing.T, dir, glob string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, glob))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

func TestOpen(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Error("empty directory path must fail")
	}
	dir := filepath.Join(t.TempDir(), "made", "on", "demand")
	fs, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	if _, ok := fs.(*fileStore); !ok {
		t.Fatalf("Open(%q) = %T, want *fileStore", dir, fs)
	}
	fs.Close()
}

func TestStateArtifactRoundTrip(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(1))
	if err := e.IngestBatch(randomUpdates(rng, 4000)); err != nil {
		t.Fatal(err)
	}
	st := e.DumpState()
	data := EncodeState(st)
	back, err := DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, st) {
		t.Fatal("decoded state differs from the dumped state")
	}
	// Determinism: equal contents encode to equal bytes.
	if !bytes.Equal(EncodeState(e.DumpState()), data) {
		t.Fatal("re-encoding the same engine produced different bytes")
	}

	// Structural corruption must be detected, never half-decoded.
	for name, mutate := range map[string]func([]byte) []byte{
		"bad magic":  func(d []byte) []byte { d[0] ^= 0xff; return d },
		"truncated":  func(d []byte) []byte { return d[:len(d)-5] },
		"bit flip":   func(d []byte) []byte { d[len(d)/2] ^= 1; return d },
		"trailing":   func(d []byte) []byte { return append(d, 0) },
		"bad length": func(d []byte) []byte { d[9] ^= 0x10; return d },
	} {
		cp := mutate(append([]byte(nil), data...))
		if _, err := DecodeState(cp); err == nil {
			t.Errorf("%s: corrupt artifact decoded without error", name)
		}
	}
}

// crash abandons the persistence without flushing or checkpointing —
// the in-process stand-in for SIGKILL (writes already issued to the OS
// survive; nothing else does).
func crash(p *Persistence) {}

func TestRecoverEmptyDir(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, stats := attach(t, e, dir, Options{})
	if stats.CheckpointSeq != 0 || stats.Records != 0 {
		t.Fatalf("fresh dir recovered %+v", stats)
	}
	if err := e.Ingest(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverWALOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	batches := make([][]engine.Update, 20)
	for i := range batches {
		batches[i] = randomUpdates(rng, 50)
	}
	cases := []struct {
		name string
		// write leaves a checkpoint-less WAL in dir and the same updates
		// in live.
		write func(t *testing.T, dir string, live *engine.Engine)
	}{
		{"journaled by the engine", func(t *testing.T, dir string, live *engine.Engine) {
			p, _ := attach(t, live, dir, Options{Fsync: FsyncNever})
			for _, b := range batches {
				if err := live.IngestBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			crash(p) // no checkpoint was ever written
		}},
		// wire == disk: what a client sent to /v1/stream, with only the
		// 8-byte magic swapped, is a WAL segment.
		{"captured stream body with its magic swapped", func(t *testing.T, dir string, live *engine.Engine) {
			body := encodeStream(batches)
			sc := NewFrameScanner(bytes.NewReader(body))
			for {
				b, err := sc.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := live.IngestBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			seg := append([]byte(walMagic), body[len(StreamMagic):]...)
			if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), seg, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e := newEngine(t)
			tc.write(t, dir, e)
			want := e.Snapshot()

			r := newEngine(t)
			_, stats := attach(t, r, dir, Options{})
			if stats.CheckpointSeq != 0 {
				t.Fatalf("no checkpoint exists, recovered from seq %d", stats.CheckpointSeq)
			}
			if stats.Updates != 1000 {
				t.Fatalf("replayed %d updates, want 1000", stats.Updates)
			}
			if !reflect.DeepEqual(r.Snapshot(), want) {
				t.Fatal("WAL-only recovery is not bit-identical")
			}
			if !bytes.Equal(EncodeState(r.DumpState()), EncodeState(e.DumpState())) {
				t.Fatal("recovered engine does not encode to the live engine's state bytes")
			}
		})
	}
}

func TestRecoverCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{Fsync: FsyncNever})
	rng := rand.New(rand.NewSource(3))
	if err := e.IngestBatch(randomUpdates(rng, 700)); err != nil {
		t.Fatal(err)
	}
	cs, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Keys == 0 || cs.Bytes == 0 {
		t.Fatalf("checkpoint stats %+v", cs)
	}
	tail := randomUpdates(rng, 300)
	if err := e.IngestBatch(tail); err != nil {
		t.Fatal(err)
	}
	want := e.Snapshot()
	crash(p)

	r := newEngine(t)
	_, stats := attach(t, r, dir, Options{})
	if stats.CheckpointSeq != cs.Seq {
		t.Fatalf("recovered from checkpoint %d, want %d", stats.CheckpointSeq, cs.Seq)
	}
	if stats.Updates == 0 {
		t.Fatal("expected a WAL tail replay")
	}
	if !reflect.DeepEqual(r.Snapshot(), want) {
		t.Fatal("checkpoint+tail recovery is not bit-identical")
	}
}

// TestRecoverRemovesCheckpointTemps: a crash while a checkpoint is being
// written leaves its temp file behind. Recovery deletes it and restores
// exactly what a recovery without it does.
func TestRecoverRemovesCheckpointTemps(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{Fsync: FsyncNever})
	rng := rand.New(rand.NewSource(13))
	if err := e.IngestBatch(randomUpdates(rng, 700)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(randomUpdates(rng, 300)); err != nil {
		t.Fatal(err)
	}
	crash(p)
	// A recovery that writes no checkpoint leaves the directory's
	// contents as they were; its state is the reference.
	ref := newEngine(t)
	pr, _ := attach(t, ref, dir, Options{})
	want := EncodeState(ref.DumpState())
	crash(pr)
	// A torn write of the next checkpoint, under a name os.CreateTemp
	// could have picked.
	ckpts := listFiles(t, dir, "checkpoint-*.ckpt")
	data, err := os.ReadFile(ckpts[len(ckpts)-1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoint-2718281828.tmp"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	r := newEngine(t)
	p2, _ := attach(t, r, dir, Options{})
	defer p2.Close()
	if left := listFiles(t, dir, "checkpoint-*.tmp"); len(left) != 0 {
		t.Fatalf("recovery left checkpoint temp files %v", left)
	}
	if !bytes.Equal(EncodeState(r.DumpState()), want) {
		t.Fatal("recovered state differs from the reference recovery's")
	}
	if !reflect.DeepEqual(r.Snapshot(), e.Snapshot()) {
		t.Fatal("recovered snapshot differs from the pre-crash one")
	}
}

func TestCleanShutdownRoundTripsExportBytes(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{})
	rng := rand.New(rand.NewSource(4))
	if err := e.IngestBatch(randomUpdates(rng, 2000)); err != nil {
		t.Fatal(err)
	}
	export := EncodeState(e.DumpState())
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	r := newEngine(t)
	p2, stats := attach(t, r, dir, Options{})
	defer p2.Close()
	if stats.Records != 0 || stats.Updates != 0 {
		t.Fatalf("clean shutdown left a WAL tail: %+v", stats)
	}
	// Byte-identical export across the restart: contents, masks, and the
	// Ingests/Version counters all survived.
	if !bytes.Equal(EncodeState(r.DumpState()), export) {
		t.Fatal("export bytes differ across a clean restart")
	}
}

func TestTornFinalRecordIsTruncated(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{Fsync: FsyncNever})
	reference := newEngine(t)
	rng := rand.New(rand.NewSource(5))
	// Single Ingests: one WAL record per update in call order, so the
	// surviving log is exactly a prefix of `all`.
	all := randomUpdates(rng, 1000)
	for _, u := range all {
		if err := e.Ingest(u.Instance, u.Key, u.Weight); err != nil {
			t.Fatal(err)
		}
	}
	crash(p)

	segs := listFiles(t, dir, "wal-*.log")
	if len(segs) == 0 {
		t.Fatal("no wal segment written")
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-record: drop the final 7 bytes.
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	r := newEngine(t)
	_, stats := attach(t, r, dir, Options{})
	if !stats.Truncated {
		t.Fatal("torn final record not reported as truncation")
	}
	if err := reference.IngestBatch(all[:stats.Updates]); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshot(), reference.Snapshot()) {
		t.Fatal("recovery after a torn final record is not the surviving prefix")
	}
}

func TestCRCMismatchMidWALStopsReplay(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{Fsync: FsyncNever})
	rng := rand.New(rand.NewSource(6))
	all := randomUpdates(rng, 1000)
	for _, u := range all {
		if err := e.Ingest(u.Instance, u.Key, u.Weight); err != nil {
			t.Fatal(err)
		}
	}
	crash(p)

	segs := listFiles(t, dir, "wal-*.log")
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte roughly mid-file: the CRC of that record must
	// fail, replay must stop there even though later records are intact.
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := newEngine(t)
	_, stats := attach(t, r, dir, Options{})
	if !stats.Truncated {
		t.Fatal("mid-WAL corruption not reported as truncation")
	}
	if stats.Updates == 0 || stats.Updates >= len(all) {
		t.Fatalf("replayed %d of %d updates; corruption should stop replay strictly early", stats.Updates, len(all))
	}
	reference := newEngine(t)
	if err := reference.IngestBatch(all[:stats.Updates]); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshot(), reference.Snapshot()) {
		t.Fatal("recovery after mid-WAL corruption is not the surviving prefix")
	}

	// Recovery rewrote the log to the surviving prefix: a second recovery
	// sees a clean (untruncated) WAL with the same contents.
	r2 := newEngine(t)
	_, stats2 := attach(t, r2, dir, Options{})
	if stats2.Truncated {
		t.Fatal("second recovery still sees corruption")
	}
	if !reflect.DeepEqual(r2.Snapshot(), r.Snapshot()) {
		t.Fatal("second recovery differs from the first")
	}
}

func TestCheckpointFallbackToPrevious(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{Fsync: FsyncNever})
	rng := rand.New(rand.NewSource(7))
	if err := e.IngestBatch(randomUpdates(rng, 400)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(randomUpdates(rng, 400)); err != nil {
		t.Fatal(err)
	}
	cs2, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(randomUpdates(rng, 200)); err != nil {
		t.Fatal(err)
	}
	want := e.Snapshot()
	crash(p)

	corrupt := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-3] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cks := listFiles(t, dir, "checkpoint-*.ckpt")
	if len(cks) != 2 {
		t.Fatalf("retained %d checkpoints, want 2", len(cks))
	}
	corrupt(cks[len(cks)-1])

	r := newEngine(t)
	_, stats := attach(t, r, dir, Options{})
	if stats.CheckpointSeq == cs2.Seq {
		t.Fatal("recovery used the corrupted newest checkpoint")
	}
	if stats.CheckpointsSkipped != 1 {
		t.Fatalf("CheckpointsSkipped = %d, want 1", stats.CheckpointsSkipped)
	}
	if !reflect.DeepEqual(r.Snapshot(), want) {
		t.Fatal("fallback recovery (previous checkpoint + longer tail) is not bit-identical")
	}

	// With BOTH checkpoints gone, the WAL alone no longer reaches the
	// full state (pruned prefix) — recovery must still succeed and land
	// exactly on what the remaining log proves.
	for _, c := range listFiles(t, dir, "checkpoint-*.ckpt") {
		if err := os.Remove(c); err != nil {
			t.Fatal(err)
		}
	}
	r2 := newEngine(t)
	_, stats2 := attach(t, r2, dir, Options{})
	if stats2.CheckpointSeq != 0 {
		t.Fatalf("checkpoints deleted but recovery reports seq %d", stats2.CheckpointSeq)
	}
}

func TestMissingCheckpointFileFallsBack(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{Fsync: FsyncNever})
	rng := rand.New(rand.NewSource(8))
	if err := e.IngestBatch(randomUpdates(rng, 300)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(randomUpdates(rng, 300)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := e.Snapshot()
	crash(p)

	cks := listFiles(t, dir, "checkpoint-*.ckpt")
	if err := os.Remove(cks[len(cks)-1]); err != nil {
		t.Fatal(err)
	}
	r := newEngine(t)
	_, _ = attach(t, r, dir, Options{})
	if !reflect.DeepEqual(r.Snapshot(), want) {
		t.Fatal("recovery with the newest checkpoint missing is not bit-identical")
	}
}

func TestCrashRecoveryProperty(t *testing.T) {
	// Random ingest cut at a random WAL byte: the recovered snapshot must
	// be bit-identical to a reference engine fed exactly the surviving
	// prefix. One update per record makes the oracle exact: surviving
	// updates = checkpointed prefix + replayed records.
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		dir := t.TempDir()
		e := newEngine(t)
		p, _ := attach(t, e, dir, Options{Fsync: FsyncNever})
		n := 100 + rng.Intn(300)
		ckptAt := -1
		if rng.Intn(2) == 0 {
			ckptAt = rng.Intn(n)
		}
		ups := randomUpdates(rng, n)
		for i, u := range ups {
			if err := e.Ingest(u.Instance, u.Key, u.Weight); err != nil {
				t.Fatal(err)
			}
			if i == ckptAt {
				if _, err := p.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		crash(p)

		// Cut the newest segment at a uniformly random byte ≥ its header.
		segs := listFiles(t, dir, "wal-*.log")
		last := segs[len(segs)-1]
		fi, err := os.Stat(last)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 8 {
			cut := 8 + rng.Int63n(fi.Size()-8+1)
			if err := os.Truncate(last, cut); err != nil {
				t.Fatal(err)
			}
		}

		r := newEngine(t)
		_, stats := attach(t, r, dir, Options{})
		survived := stats.Updates
		if ckptAt >= 0 {
			survived += ckptAt + 1
		}
		if survived > n {
			t.Fatalf("trial %d: survived %d of %d updates", trial, survived, n)
		}
		reference := newEngine(t)
		for _, u := range ups[:survived] {
			if err := reference.Ingest(u.Instance, u.Key, u.Weight); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(r.Snapshot(), reference.Snapshot()) {
			t.Fatalf("trial %d: recovered snapshot differs from the %d-update prefix (ckpt at %d)",
				trial, survived, ckptAt)
		}
	}
}

// TestCheckpointRacingWritersLosesNothing checkpoints in a loop while four
// writers stream batches that span every shard, then crashes and
// recovers. Every update names a fresh key, so a batch journaled into a
// segment the checkpoint pruned but not yet applied when it cut would
// surface as missing keys: the cut barrier is what closes that window.
func TestCheckpointRacingWritersLosesNothing(t *testing.T) {
	const writers, maxBatches, perBatch, checkpoints = 4, 1000, 32, 20
	dir := t.TempDir()
	e := newEngine(t)
	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Attach(e, st)
	if err != nil {
		t.Fatal(err)
	}
	e.SetJournal(dawdler{st})

	// Writers stream until the checkpointer is done (or their batches run
	// out), each recording the batches the engine acknowledged.
	stop := make(chan struct{})
	acked := make([][][]engine.Update, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for b := range maxBatches {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]engine.Update, perBatch)
				for j := range batch {
					batch[j] = engine.Update{
						Instance: j % 3,
						Key:      uint64(w)<<32 | uint64(b)<<8 | uint64(j),
						Weight:   1 + rng.Float64(),
					}
				}
				if errs[w] = e.IngestBatch(batch); errs[w] != nil {
					return
				}
				acked[w] = append(acked[w], batch)
			}
		}()
	}
	for range checkpoints {
		if _, err := p.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil { // crash-style: no final checkpoint
		t.Fatal(err)
	}

	reference := newEngine(t)
	for _, batches := range acked {
		for _, batch := range batches {
			if err := reference.IngestBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := newEngine(t)
	_, stats := attach(t, r, dir, Options{})
	if stats.CheckpointSeq == 0 {
		t.Fatal("recovery found no checkpoint")
	}
	if got, want := r.Stats().Keys, reference.Stats().Keys; got != want {
		t.Fatalf("recovered %d keys, want %d acknowledged", got, want)
	}
	if !reflect.DeepEqual(r.Snapshot(), reference.Snapshot()) {
		t.Fatal("recovered snapshot differs from every acknowledged batch applied")
	}
}

// dawdler is a journal that pauses after each record, widening the window
// between a batch's journal append and its fold — the window a cut that
// ignored the barrier would lose the batch in.
type dawdler struct{ Store }

func (d dawdler) Append(batch []engine.Update) error {
	err := d.Store.Append(batch)
	time.Sleep(100 * time.Microsecond)
	return err
}

func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			e := newEngine(t)
			st, err := Open(dir, Options{Fsync: pol})
			if err != nil {
				t.Fatal(err)
			}
			st.(*fileStore).syncInterval = 5 * time.Millisecond
			p, _, err := Attach(e, st)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if err := e.Ingest(i%3, uint64(i), 1); err != nil {
					t.Fatal(err)
				}
			}
			if pol == FsyncInterval {
				time.Sleep(25 * time.Millisecond) // let the flusher tick
			}
			if err := p.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			r := newEngine(t)
			p2, _ := attach(t, r, dir, Options{})
			defer p2.Close()
			if !reflect.DeepEqual(r.Snapshot(), e.Snapshot()) {
				t.Fatalf("policy %v: recovery not bit-identical", pol)
			}
		})
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bad fsync policy must fail to parse")
	}
	for _, s := range []string{"always", "interval", "never"} {
		pol, err := ParseFsyncPolicy(s)
		if err != nil || pol.String() != s {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", s, pol, err)
		}
	}
}

func TestCheckpointPrunesWAL(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{Fsync: FsyncNever})
	rng := rand.New(rand.NewSource(9))
	var dropped int
	for i := 0; i < 4; i++ {
		if err := e.IngestBatch(randomUpdates(rng, 100)); err != nil {
			t.Fatal(err)
		}
		cs, err := p.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		dropped += cs.WALRecordsDropped
	}
	if dropped == 0 {
		t.Fatal("repeated checkpoints never pruned a WAL record")
	}
	if n := len(listFiles(t, dir, "checkpoint-*.ckpt")); n != 2 {
		t.Fatalf("retained %d checkpoints, want 2", n)
	}
	// Segments older than the oldest retained checkpoint must be gone.
	segs := listFiles(t, dir, "wal-*.log")
	cks := listFiles(t, dir, "checkpoint-*.ckpt")
	oldest := filepath.Base(cks[0])
	for _, s := range segs {
		if filepath.Base(s) < strings.Replace(oldest, "checkpoint-", "wal-", 1) {
			t.Fatalf("segment %s predates the oldest retained checkpoint %s", s, oldest)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreUsageErrors(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(nil); err == nil {
		t.Error("append before Recover must fail")
	}
	if _, err := st.Checkpoint(func() *engine.State { return nil }); err == nil {
		t.Error("checkpoint before Recover must fail")
	}
	if _, err := recoverEngine(st, newEngineQuiet()); err != nil {
		t.Fatal(err)
	}
	if _, err := recoverEngine(st, newEngineQuiet()); err == nil {
		t.Error("second Recover must fail")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := st.Append(nil); err == nil {
		t.Error("append after Close must fail")
	}
}

func newEngineQuiet() *engine.Engine {
	e, _ := engine.New(engine.Config{Instances: 3, K: 8, Shards: 4, Hash: sampling.NewSeedHash(7)})
	return e
}
