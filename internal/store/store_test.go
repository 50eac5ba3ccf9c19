package store

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

// TestRecoverWALOnly: wire == disk. What a client sent to /v1/stream,
// with only the 8-byte magic swapped, is a WAL segment that recovers to
// the live engine's state bytes.
func TestRecoverWALOnly(t *testing.T) {
	t.Run("captured stream body with its magic swapped", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		batches := make([][]engine.Update, 20)
		for i := range batches {
			batches[i] = randomUpdates(rng, 50)
		}
		dir := t.TempDir()
		e := newEngine(t)
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
			if err := e.IngestBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		seg := append([]byte(walMagic), body[len(StreamMagic):]...)
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), seg, 0o644); err != nil {
			t.Fatal(err)
		}

		r := newEngine(t)
		_, stats := attach(t, r, dir, Options{})
		if stats.CheckpointSeq != 0 || stats.Updates != 1000 {
			t.Fatalf("recovered %+v, want 1000 updates and no checkpoint", stats)
		}
		if !reflect.DeepEqual(r.Snapshot(), e.Snapshot()) {
			t.Fatal("WAL-only recovery is not bit-identical")
		}
		if !bytes.Equal(EncodeState(r.DumpState()), EncodeState(e.DumpState())) {
			t.Fatal("recovered engine does not encode to the live engine's state bytes")
		}
	})
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

func TestStoreUsageErrors(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(nil); err == nil {
		t.Error("append before Recover must fail")
	}
	if _, err := st.Checkpoint(func(uint64) (*engine.State, uint64) { return nil, 0 }); err == nil {
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
