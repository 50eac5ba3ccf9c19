package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sampling"
)

func newReplayEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Config{Instances: 3, K: 8, Shards: 16, Hash: sampling.NewSeedHash(7)})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// serialTarget is the reference recovery: every record through one
// IngestBatch call, as replay ran before it went shard-parallel.
type serialTarget struct{ eng *engine.Engine }

func (t serialTarget) Restore(st *engine.State) error { return t.eng.RestoreState(st) }
func (t serialTarget) Replay(batch []engine.Update) error {
	return t.eng.IngestBatch(batch)
}

// copyDir copies the flat store directory src into a fresh temp dir, so
// each recovery (which opens a segment of its own) starts from the same
// files.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// crashStop closes the store without a final checkpoint: what a SIGKILL
// leaves on disk, since every append already reached the kernel.
func crashStop(t *testing.T, st Store) {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// Shard-parallel replay hands every shard the update sequence a serial
// IngestBatch loop does, so the recovered engine is the serial one down
// to the registry slot order and the per-shard mutation counters — at any
// worker count.
func TestParallelReplayMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	batches := func(n int) [][]engine.Update {
		out := make([][]engine.Update, n)
		for i := range out {
			ups := make([]engine.Update, 1+rng.Intn(300))
			for j := range ups {
				ups[j] = engine.Update{Instance: rng.Intn(3), Key: uint64(rng.Intn(5000)), Weight: rng.Float64() * 10}
				if rng.Intn(10) == 0 {
					ups[j].Weight = 0
				}
			}
			out[i] = ups
		}
		return out
	}
	dir := t.TempDir()
	e := newReplayEngine(t)
	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Attach(e, st)
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(e *engine.Engine, bs [][]engine.Update) {
		for _, b := range bs {
			if err := e.IngestBatch(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(e, batches(200))
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingest(e, batches(200))
	crashStop(t, st)

	// A second boot appends to a segment of its own, so the tail spans
	// two; one record larger than the replay queue's cap rides along.
	e2 := newReplayEngine(t)
	st2, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Attach(e2, st2); err != nil {
		t.Fatal(err)
	}
	huge := make([]engine.Update, 40000)
	for j := range huge {
		huge[j] = engine.Update{Instance: rng.Intn(3), Key: uint64(rng.Intn(20000)), Weight: rng.Float64() * 20}
	}
	ingest(e2, append(batches(100), huge))
	ingest(e2, batches(100))
	crashStop(t, st2)
	if segs := listFiles(t, dir, "wal-*.log"); len(segs) < 2 {
		t.Fatalf("tail spans %d segment(s), want at least 2", len(segs))
	}

	recoverWith := func(h func(*engine.Engine) RecoveryHandler, parallel bool) ([]byte, engine.Stats, RecoveryStats) {
		t.Helper()
		eng := newReplayEngine(t)
		st, err := Open(copyDir(t, dir), Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var rs RecoveryStats
		if parallel {
			rs, err = recoverEngine(st, eng)
		} else {
			rs, err = st.Recover(h(eng))
		}
		if err != nil {
			t.Fatal(err)
		}
		return EncodeState(eng.DumpState()), eng.Stats(), rs
	}
	wantBytes, wantStats, wantRec := recoverWith(func(e *engine.Engine) RecoveryHandler { return serialTarget{e} }, false)
	if wantRec.CheckpointSeq == 0 || wantRec.Records < 300 {
		t.Fatalf("reference recovery %+v: want a checkpoint plus a multi-segment tail", wantRec)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		gotBytes, gotStats, gotRec := recoverWith(nil, true)
		if gotRec != wantRec {
			t.Errorf("GOMAXPROCS=%d: recovery stats %+v, serial %+v", procs, gotRec, wantRec)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("GOMAXPROCS=%d: recovered state encodes differently from serial replay", procs)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Errorf("GOMAXPROCS=%d: engine stats %+v, serial %+v", procs, gotStats, wantStats)
		}
	}
}

// A CRC-valid record that the engine rejects aborts recovery at that
// record with IngestBatch's error; everything before it is applied, and
// no replay worker outlives the failure.
func TestReplayRejectedRecordFailsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recoverEngine(st, newReplayEngine(t)); err != nil {
		t.Fatal(err)
	}
	// The oracle applies exactly the records ahead of the bad one.
	oracle := newReplayEngine(t)
	for i := 0; i < 50; i++ {
		ups := randomUpdates(rng, 64)
		if err := st.Append(ups); err != nil {
			t.Fatal(err)
		}
		if err := oracle.IngestBatch(ups); err != nil {
			t.Fatal(err)
		}
	}
	bad := randomUpdates(rng, 8)
	bad[3].Instance = 3 // r = 3
	if err := st.Append(bad); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := st.Append(randomUpdates(rng, 64)); err != nil {
			t.Fatal(err)
		}
	}
	crashStop(t, st)

	base := runtime.NumGoroutine()
	eng := newReplayEngine(t)
	st2, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, err = recoverEngine(st2, eng)
	if err == nil {
		t.Fatal("recovery accepted a record with an out-of-range instance")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "store: replaying ") ||
		!strings.Contains(msg, "engine: update 3: engine: instance 3 outside [0, 3)") {
		t.Fatalf("error %q, want the store's replay error wrapping the engine's update 3 rejection", msg)
	}
	if !bytes.Equal(EncodeState(eng.DumpState()), EncodeState(oracle.DumpState())) {
		t.Fatal("records ahead of the rejected one were not all applied")
	}
	if got, want := eng.Stats(), oracle.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("engine stats %+v, want the prefix's %+v", got, want)
	}
	// Wait has returned, but an exiting goroutine may not be reaped yet.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed recovery, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
