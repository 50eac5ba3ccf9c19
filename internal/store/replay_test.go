package store

import (
	"bytes"
	"math/rand"
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

// crashStop closes the store without a final checkpoint: what a SIGKILL
// leaves on disk, since every append already reached the kernel.
func crashStop(t *testing.T, st Store) {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatal(err)
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
