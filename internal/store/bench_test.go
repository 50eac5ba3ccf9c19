package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/sampling"
)

func benchEngine(b *testing.B) *engine.Engine {
	b.Helper()
	e, err := engine.New(engine.Config{Instances: 2, K: 64, Shards: 16, Hash: sampling.NewSeedHash(1)})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func benchUpdates(n, keyspace int) []engine.Update {
	rng := rand.New(rand.NewSource(42))
	ups := make([]engine.Update, n)
	for i := range ups {
		ups[i] = engine.Update{
			Instance: rng.Intn(2),
			Key:      uint64(rng.Intn(keyspace)),
			Weight:   rng.Float64() * 100,
		}
	}
	return ups
}

// BenchmarkIngestWAL measures the WAL's ingest overhead: 256-update
// batches into a 16-shard engine, with journaling off and on under each
// fsync policy. The off/never delta is the encoding+write cost; never vs
// always is the price of per-batch durability.
func BenchmarkIngestWAL(b *testing.B) {
	const batch = 256
	run := func(b *testing.B, attach bool, opt Options) {
		e := benchEngine(b)
		if attach {
			st, err := Open(b.TempDir(), opt)
			if err != nil {
				b.Fatal(err)
			}
			p, _, err := Attach(e, st)
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				b.StopTimer() // the final checkpoint is not the ingest path
				p.Close()
			}()
		}
		ups := benchUpdates(64*batch, 1<<16)
		b.ReportAllocs()
		b.SetBytes(int64(batch * 20))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := (i * batch) % (len(ups) - batch)
			if err := e.IngestBatch(ups[lo : lo+batch]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false, Options{}) })
	b.Run("fsync=never", func(b *testing.B) { run(b, true, Options{Fsync: FsyncNever}) })
	b.Run("fsync=interval", func(b *testing.B) { run(b, true, Options{Fsync: FsyncInterval}) })
	b.Run("fsync=always", func(b *testing.B) { run(b, true, Options{Fsync: FsyncAlways}) })
}

// BenchmarkRecovery measures boot-time replay of a 1M-update WAL (no
// checkpoint — the worst case) into a fresh engine.
func BenchmarkRecovery(b *testing.B) {
	const total = 1 << 20
	const batch = 256
	dir := b.TempDir()
	e := benchEngine(b)
	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := Attach(e, st); err != nil {
		b.Fatal(err)
	}
	ups := benchUpdates(total, 1<<18)
	for lo := 0; lo < total; lo += batch {
		if err := e.IngestBatch(ups[lo : lo+batch]); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil { // crash-style: no final checkpoint
		b.Fatal(err)
	}
	benchRecover(b, dir, total)
}

// BenchmarkRecoverCheckpointTail is the durable-ingest boot shape:
// restore a 65,536-key checkpoint, then replay a 65,536-update tail in
// 256-update records.
func BenchmarkRecoverCheckpointTail(b *testing.B) {
	const keys = 1 << 16
	const batch = 256
	dir := b.TempDir()
	e := benchEngine(b)
	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	p, _, err := Attach(e, st)
	if err != nil {
		b.Fatal(err)
	}
	// The first half names every key once; the second is the tail.
	ups := benchUpdates(2*keys, keys)
	for i := range keys {
		ups[i].Key = uint64(i)
	}
	for lo := 0; lo < len(ups); lo += batch {
		if lo == keys {
			if _, err := p.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.IngestBatch(ups[lo : lo+batch]); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil { // crash-style: no final checkpoint
		b.Fatal(err)
	}
	benchRecover(b, dir, keys)
}

// benchRecover times recovering dir into a fresh engine, replaying tail
// updates, and reports the replay rate. Recovery opens a fresh WAL
// segment; it is deleted off the clock so every iteration recovers the
// same directory.
func benchRecover(b *testing.B, dir string, tail int) {
	b.Helper()
	orig, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	keep := map[string]bool{}
	for _, f := range orig {
		keep[f.Name()] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := benchEngine(b)
		st, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			b.Fatal(err)
		}
		stats, err := recoverEngine(st, e)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Updates != tail {
			b.Fatalf("replayed %d updates, want %d", stats.Updates, tail)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		files, err := os.ReadDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range files {
			if !keep[f.Name()] {
				if err := os.Remove(filepath.Join(dir, f.Name())); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(tail)*float64(b.N)/b.Elapsed().Seconds(), "updates/s")
}

// BenchmarkCheckpoint measures cutting and persisting a 64k-key state:
// full (one new key per iteration grows the registry, so the store must
// rewrite it) and sketch-only (an unchanged registry; the full checkpoint
// the store takes after walBudgetPerFull sketch-only ones is left out of
// the timing). Besides B/op and allocs/op it reports the bytes each
// checkpoint file holds.
func BenchmarkCheckpoint(b *testing.B) {
	for _, full := range []bool{true, false} {
		name := "full"
		if !full {
			name = "sketch-only"
		}
		b.Run(name, func(b *testing.B) {
			e := benchEngine(b)
			st, err := Open(b.TempDir(), Options{Fsync: FsyncNever})
			if err != nil {
				b.Fatal(err)
			}
			p, _, err := Attach(e, st)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			ups := benchUpdates(1<<18, 1<<16)
			for lo := 0; lo < len(ups); lo += 256 {
				if err := e.IngestBatch(ups[lo : lo+256]); err != nil {
					b.Fatal(err)
				}
			}
			var cs CheckpointStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if full {
					err = e.Ingest(0, 1<<16+uint64(i), 1) // a key past benchUpdates'
				} else if i%walBudgetPerFull == 0 {
					_, err = p.Checkpoint() // the base
				}
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if cs, err = p.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				if (cs.Base == 0) != full {
					b.Fatalf("checkpoint %+v: want full=%v", cs, full)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(cs.Bytes), "file-bytes/op")
		})
	}
}

// The benchmarks double as a large-scale equivalence check when run with
// -test.run support; keep a cheap guard here so `go test` exercises the
// 1M path shape without the cost.
func TestRecoveryBenchShape(t *testing.T) {
	e, err := engine.New(engine.Config{Instances: 2, K: 64, Shards: 16, Hash: sampling.NewSeedHash(1)})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Attach(e, st)
	if err != nil {
		t.Fatal(err)
	}
	ups := benchUpdates(4096, 1<<12)
	for lo := 0; lo < len(ups); lo += 256 {
		if err := e.IngestBatch(ups[lo : lo+256]); err != nil {
			t.Fatal(err)
		}
	}
	want := e.Snapshot()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	r, _ := engine.New(engine.Config{Instances: 2, K: 64, Shards: 16, Hash: sampling.NewSeedHash(1)})
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recoverEngine(st2, r); err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !reflect.DeepEqual(r.Snapshot(), want) {
		t.Fatal("bench-shaped recovery is not bit-identical")
	}
}
