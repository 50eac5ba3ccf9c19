package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/sampling"
	"repro/internal/store"
)

// This file is the store's model-based harness. A coordinated bottom-k
// sample is a pure function of each key's max weight per instance
// (footnote 1's reduction), so the whole durability contract is one
// oracle: after any crash, file damage and restart, the engine must hold
// dataset.SampleBottomK of the max-weight table of the writes that
// survived. The harness runs an engine and its store beside a model of
// the directory — every WAL segment's records with their byte spans and
// every checkpoint's table, kind and base — through a seeded op stream.
// After every write it predicts whether the WAL budget raised Due, and
// takes the checkpoint monestd would; at every checkpoint it predicts
// whether the store writes it sketch-only and the files its prune leaves,
// within the bound on retained checkpoints; at every restart it predicts
// the RecoveryStats and the files recovery leaves, and holds the
// recovered engine to the surviving table and to a serial IngestBatch
// recovery of the same files. It is external because internal/fault, which injects
// the failing appends and checkpoints, imports the store.

// The ops a stream byte selects (b % numOps); a crash takes the damage
// (b / numOps) % numDamages.
const (
	opBatch      = iota // IngestBatch, with dominated duplicates and zeros
	opIngest            // single Ingest calls
	opReweigh           // IngestBatch of registered pairs: the registry stays
	opCheckpoint        // Persistence.Checkpoint
	opCrash             // Store.Close with no checkpoint, damage, restart
	opClose             // Persistence.Close, restart
	numOps
)

// The damage a crash leaves for the restart to find.
const (
	dmgNone       = iota
	dmgCutMagic   // the newest segment cut inside its 8-byte magic
	dmgCut        // the newest segment cut at a byte past its magic
	dmgFlip       // one byte of a segment that holds records flipped
	dmgTemp       // a checkpoint temp file left behind
	dmgCorrupt    // a byte of a checkpoint flipped, header bytes half the time
	dmgDelete     // the newest checkpoint deleted
	dmgDeleteBase // the newest full checkpoint deleted
	dmgDeleteAll  // every checkpoint deleted
	numDamages
)

// crash is the stream byte of a crash with damage d.
func crash(d int) byte { return byte(opCrash + numOps*d) }

// How a segment file ends after its readable records.
const (
	endClean    = iota // on a frame boundary
	endTorn            // inside a torn or corrupt record
	endHeadless        // in its magic, which is damaged: nothing is readable
	endShort           // before its magic is whole
)

const (
	magicBytes      = 8
	ckptHeaderBytes = 28 // magic, horizon, base, header CRC
)

// record is one journaled ingest call: its non-zero updates and the
// bytes of its frame. A torn one landed in the WAL but its append
// reported fault.ErrTorn, so the engine did not apply it.
type record struct {
	ups  []engine.Update
	size int
	torn bool
}

// segment is one WAL file: the records a scan reads, how the file ends
// after them, and how many records the store counts live in it (what a
// prune reports as dropped).
type segment struct {
	seq  uint64
	recs []record
	end  int
	live int
}

// breakAt models damage at byte at: a cut there (cut) or a flipped byte.
// The records that end by at stay readable.
func (s *segment) breakAt(at int64, cut bool) {
	if at < magicBytes {
		s.recs, s.end = nil, endHeadless
		if cut {
			s.end = endShort
		}
		return
	}
	off := int64(magicBytes)
	for r, rec := range s.recs {
		if off+int64(rec.size) > at {
			s.recs = s.recs[:r]
			if !cut || off < at {
				s.end = endTorn
			}
			return
		}
		off += int64(rec.size)
	}
}

// size is the readable length of s.
func (s *segment) size() int64 {
	n := int64(magicBytes)
	for _, rec := range s.recs {
		n += int64(rec.size)
	}
	return n
}

// checkpoint is one checkpoint file: the table and version it cut, its
// base (zero for a full one), and whether it fails validation (damage,
// or a base that does).
type checkpoint struct {
	seq, version, base uint64
	w                  [][]float64
	bad                bool
}

// model is the harness state: the running boot and the modeled files.
type model struct {
	t    testing.TB
	seed int64
	rng  *rand.Rand
	cfg  engine.Config
	keys int // keys are 0..keys-1, SampleBottomK's item indices
	dir  string

	// The running boot: its engine, store and persistence, and the table
	// of what the engine applied.
	e  *engine.Engine
	st store.Store
	p  *store.Persistence
	w  [][]float64

	segs  []*segment    // ascending; the last is the one appended to
	ckpts []*checkpoint // ascending

	// The running store's base checkpoint (zero for none) and registry
	// size at it, and its WAL budget from a floor drawn per boot.
	base, baseReg uint64
	floor, budget int64

	ran         [numOps]int
	damaged     [numDamages]int
	resurrected int // torn appends a recovery replayed
	volume      int // checkpoints Due started
	sketches    int // sketch-only checkpoints written
	chained     int // full checkpoints the chain bound forced
	spliced     int // recoveries that restored a sketch-only checkpoint
	orphaned    int // sketch-only checkpoints judged bad for their base
}

// runModel draws the configuration, every key and weight and every fault
// from seed, boots on an empty directory and applies ops.
func runModel(t testing.TB, seed int64, ops []byte) *model {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(seed))
	m := &model{t: t, seed: seed, rng: rng, keys: 8 + rng.Intn(250), dir: t.TempDir()}
	m.cfg = engine.Config{Instances: 1 + rng.Intn(3), K: 1 + rng.Intn(12), Hash: sampling.NewSeedHash(uint64(seed))}
	m.boot(-1, nil)
	for j, b := range ops {
		m.step(j, b)
	}
	m.check(len(ops), m.e, m.w)
	if err := m.st.Close(); err != nil {
		m.fail(len(ops), "Close: %v", err)
	}
	return m
}

// fail stops the run, naming the seed and the op index j.
func (m *model) fail(j int, format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("seed %d, op %d: "+format, append([]any{m.seed, j}, args...)...)
}

func (m *model) engine(shards int) *engine.Engine {
	cfg := m.cfg
	cfg.Shards = shards
	e, err := engine.New(cfg)
	if err != nil {
		m.t.Fatal(err)
	}
	return e
}

// table returns a copy of w, or an empty table for nil.
func (m *model) table(w [][]float64) [][]float64 {
	out := make([][]float64, m.cfg.Instances)
	for i := range out {
		out[i] = make([]float64, m.keys)
		if w != nil {
			copy(out[i], w[i])
		}
	}
	return out
}

func fold(w [][]float64, ups []engine.Update) {
	for _, u := range ups {
		w[u.Instance][u.Key] = max(w[u.Instance][u.Key], u.Weight)
	}
}

// reg is the registry size of table w: keys with a positive weight plus
// positive (instance, key) entries, engine.SketchState's reg.
func (m *model) reg(w [][]float64) uint64 {
	n := 0
	for key := range m.keys {
		seen := false
		for i := range w {
			if w[i][key] > 0 {
				n++
				seen = true
			}
		}
		if seen {
			n++
		}
	}
	return uint64(n)
}

// updates draws n updates: one in eight is a zero weight, an accepted
// no-op, and about a quarter are dominated, by the table or by the
// update just before them.
func (m *model) updates(n int) []engine.Update {
	ups := make([]engine.Update, 0, n+n/4)
	for len(ups) < n {
		u := engine.Update{Instance: m.rng.Intn(m.cfg.Instances), Key: uint64(m.rng.Intn(m.keys)), Weight: 10 * m.rng.Float64()}
		switch m.rng.Intn(8) {
		case 0:
			u.Weight = 0
		case 1:
			if w := m.w[u.Instance][u.Key]; w > 0 {
				u.Weight = w * m.rng.Float64()
			}
		case 2:
			ups = append(ups, u)
			u.Weight *= m.rng.Float64()
		}
		ups = append(ups, u)
	}
	return ups
}

// reweigh draws n updates of (instance, key) pairs the table already
// holds, raising or lowering the weight: none grows the registry.
func (m *model) reweigh(n int) []engine.Update {
	var held []engine.Update
	for i := range m.w {
		for key, w := range m.w[i] {
			if w > 0 {
				held = append(held, engine.Update{Instance: i, Key: uint64(key), Weight: w})
			}
		}
	}
	ups := make([]engine.Update, 0, n)
	for len(held) > 0 && len(ups) < n {
		u := held[m.rng.Intn(len(held))]
		u.Weight *= 0.5 + m.rng.Float64()
		ups = append(ups, u)
	}
	return ups
}

func (m *model) step(j int, b byte) {
	m.t.Helper()
	op := int(b) % numOps
	switch op {
	case opBatch:
		n := 1 + m.rng.Intn(64)
		if m.rng.Intn(16) == 0 {
			n = 1<<14 + 1 + m.rng.Intn(1024) // above the replay queue's cap
		}
		ups := m.updates(n)
		if m.rng.Intn(10) == 0 {
			for i := range ups {
				ups[i].Weight = 0 // journals nothing
			}
		}
		m.write(j, ups, m.e.IngestBatch(ups))
	case opIngest:
		for _, u := range m.updates(1 + m.rng.Intn(8)) {
			m.write(j, []engine.Update{u}, m.e.Ingest(u.Instance, u.Key, u.Weight))
		}
	case opReweigh:
		ups := m.reweigh(1 + m.rng.Intn(64))
		m.write(j, ups, m.e.IngestBatch(ups))
	case opCheckpoint:
		m.takeCheckpoint(j)
	case opCrash:
		if err := m.st.Close(); err != nil {
			m.fail(j, "Store.Close: %v", err)
		}
		d := int(b) / numOps % numDamages
		m.damage(j, d)
		m.damaged[d]++
		m.boot(j, nil)
	case opClose:
		st := m.e.DumpState()
		if _, ok := m.checkpoint(j, m.p.Close()); !ok {
			st = nil
		}
		m.boot(j, st)
	}
	m.ran[op]++
}

// write mirrors one ingest call given its error: the call's non-zero
// updates are one record in the open segment unless the append was
// injected to fail, and the engine applied them only without an error.
// An append that leaves the open segment past the WAL budget raises Due,
// and nothing else does; a raised Due is taken at once with a
// checkpoint, as monestd takes it.
func (m *model) write(j int, ups []engine.Update, err error) {
	m.t.Helper()
	var rec record
	switch {
	case err == nil:
		fold(m.w, ups)
	case errors.Is(err, fault.ErrInjected):
	case !errors.Is(err, fault.ErrTorn):
		m.fail(j, "ingest: %v", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		for _, u := range ups {
			if u.Weight > 0 {
				rec.ups = append(rec.ups, u)
			}
		}
	}
	s := m.segs[len(m.segs)-1]
	if len(rec.ups) > 0 {
		rec.size, rec.torn = len(store.AppendFrame(nil, rec.ups)), err != nil
		s.recs = append(s.recs, rec)
		s.live++
	}
	due := false
	select {
	case <-m.p.Due():
		due = true
	default:
	}
	if want := len(rec.ups) > 0 && s.size()-magicBytes > m.budget; due != want {
		m.fail(j, "Due raised %v, model %v (%d WAL bytes, budget %d)", due, want, s.size()-magicBytes, m.budget)
	}
	if due {
		m.volume++
		m.takeCheckpoint(j)
	}
}

// takeCheckpoint runs Checkpoint and holds it to the model: its stats
// and the files it leaves, of which a written one's prune leaves at most
// two full and WALBudgetPerFull sketch-only checkpoints.
func (m *model) takeCheckpoint(j int) {
	m.t.Helper()
	got, err := m.p.Checkpoint()
	want, ok := m.checkpoint(j, err)
	if ok && (got.Seq != want.Seq || got.Version != want.Version || got.Base != want.Base || got.WALRecordsDropped != want.WALRecordsDropped) {
		m.fail(j, "checkpoint stats %+v, model %+v", got, want)
	}
	m.checkFiles(j)
	if names, _ := filepath.Glob(filepath.Join(m.dir, "checkpoint-*.ckpt")); ok && len(names) > 2+store.WALBudgetPerFull {
		m.fail(j, "%d checkpoints retained, bound %d", len(names), 2+store.WALBudgetPerFull)
	}
}

// checkpoint mirrors a checkpoint that ended with err, returning the
// stats the store must report and whether one was written (an injected
// failure writes none). A checkpoint rotates to a fresh segment and is
// named for it. One whose registry size equals the base's is sketch-only
// and names the base, unless WALBudgetPerFull valid ones name it already;
// a full one becomes the base, and its size sets the budget. The prune
// keeps the newest two valid full checkpoints and the sketch-only ones
// newer than the newest, deletes every other one, and deletes the
// segments below the oldest kept.
func (m *model) checkpoint(j int, err error) (store.CheckpointStats, bool) {
	var cs store.CheckpointStats
	if errors.Is(err, fault.ErrInjected) {
		return cs, false
	}
	if err != nil {
		m.fail(j, "checkpoint: %v", err)
	}
	cs.Seq, cs.Version = m.segs[len(m.segs)-1].seq+1, m.e.Version()
	chain := 0
	for _, c := range m.ckpts {
		if !c.bad && c.base != 0 && c.base == m.base {
			chain++
		}
	}
	reg := m.reg(m.w)
	if same := m.baseReg != 0 && reg == m.baseReg; same && chain < store.WALBudgetPerFull {
		cs.Base = m.base
		m.sketches++
	} else {
		if same {
			m.chained++
		}
		m.base, m.baseReg = cs.Seq, reg
		defer m.setBudget(j)
	}
	m.segs = append(m.segs, &segment{seq: cs.Seq})
	m.ckpts = append(m.ckpts, &checkpoint{seq: cs.Seq, version: cs.Version, base: cs.Base, w: m.table(m.w)})
	var keep []*checkpoint
	fulls := 0
	for _, c := range slices.Backward(m.ckpts) {
		if c.bad {
			continue
		}
		if c.base == 0 {
			fulls++
		}
		if fulls == 0 || c.base == 0 && fulls <= 2 {
			keep = append(keep, c)
		}
	}
	slices.Reverse(keep)
	m.ckpts = keep
	m.segs = slices.DeleteFunc(m.segs, func(s *segment) bool {
		if s.seq >= m.ckpts[0].seq {
			return false
		}
		cs.WALRecordsDropped += s.live
		return true
	})
	return cs, true
}

// setBudget sets the WAL budget from the base's file size:
// WALBudgetPerFull times it, and at least the floor.
func (m *model) setBudget(j int) {
	m.budget = m.floor
	if m.base != 0 {
		fi, err := os.Stat(m.ckptPath(m.base))
		if err != nil {
			m.fail(j, "base: %v", err)
		}
		m.budget = max(m.floor, store.WALBudgetPerFull*fi.Size())
	}
}

func (m *model) segPath(seq uint64) string {
	return filepath.Join(m.dir, fmt.Sprintf("wal-%08d.log", seq))
}

func (m *model) ckptPath(seq uint64) string {
	return filepath.Join(m.dir, fmt.Sprintf("checkpoint-%08d.ckpt", seq))
}

// damage applies damage d to the closed directory and to the model.
func (m *model) damage(j int, d int) {
	must := func(err error) {
		if err != nil {
			m.fail(j, "damage %d: %v", d, err)
		}
	}
	flip := func(path string, at int64) {
		data, err := os.ReadFile(path)
		must(err)
		data[at] ^= 0xff
		must(os.WriteFile(path, data, 0o644))
	}
	newest := m.segs[len(m.segs)-1]
	switch d {
	case dmgCutMagic, dmgCut:
		at := m.rng.Int63n(magicBytes)
		if d == dmgCut {
			at = magicBytes + m.rng.Int63n(newest.size()-magicBytes+1)
		}
		must(os.Truncate(m.segPath(newest.seq), at))
		newest.breakAt(at, true)
	case dmgFlip:
		var held []*segment
		for _, s := range m.segs {
			if len(s.recs) > 0 {
				held = append(held, s)
			}
		}
		if len(held) > 0 {
			s := held[m.rng.Intn(len(held))]
			at := m.rng.Int63n(s.size())
			if m.rng.Intn(4) == 0 {
				at = m.rng.Int63n(magicBytes)
			}
			flip(m.segPath(s.seq), at)
			s.breakAt(at, false)
		}
	case dmgTemp:
		must(os.WriteFile(filepath.Join(m.dir, fmt.Sprintf("checkpoint-%d.tmp", m.rng.Int63())), []byte("MONESTK1"), 0o644))
	case dmgCorrupt:
		// The newest checkpoint or any one; any byte, a header byte half
		// the time (the horizon and the base included).
		if n := len(m.ckpts); n > 0 {
			c := m.ckpts[n-1]
			if m.rng.Intn(2) == 0 {
				c = m.ckpts[m.rng.Intn(n)]
			}
			if !c.bad {
				path := m.ckptPath(c.seq)
				fi, err := os.Stat(path)
				must(err)
				at := m.rng.Int63n(fi.Size())
				if m.rng.Intn(2) == 0 {
					at = m.rng.Int63n(ckptHeaderBytes)
				}
				flip(path, at)
				c.bad = true
			}
		}
	case dmgDeleteBase:
		for i, c := range slices.Backward(m.ckpts) {
			if c.base == 0 {
				must(os.Remove(m.ckptPath(c.seq)))
				m.ckpts = slices.Delete(m.ckpts, i, i+1)
				break
			}
		}
	case dmgDelete, dmgDeleteAll:
		for len(m.ckpts) > 0 {
			n := len(m.ckpts)
			must(os.Remove(m.ckptPath(m.ckpts[n-1].seq)))
			if m.ckpts = m.ckpts[:n-1]; d == dmgDelete {
				break
			}
		}
	}
}

// recovery predicts what Recover reports and the table it restores, and
// leaves the model's files as recovery leaves the directory. A
// sketch-only checkpoint whose base is gone or bad is bad itself. The
// newest valid checkpoint is restored, its base (itself when full)
// becomes the store's base; segments below the oldest valid one are
// deleted, and those below the restored one kept unreplayed (so a later
// fallback replays the torn appends between the two again). The rest
// replay in order up to the first damaged one: a segment shorter than the
// magic is deleted and lost nothing; a torn one is truncated after its
// last good record, a headless one deleted, and either ends the log.
// Appends go to a fresh segment past every one seen.
func (m *model) recovery(j int) (store.RecoveryStats, [][]float64) {
	var rs store.RecoveryStats
	w := m.table(nil)
	var from, oldest uint64
	m.base, m.baseReg = 0, 0
	for _, c := range slices.Backward(m.ckpts) {
		if !c.bad && c.base != 0 {
			if i := slices.IndexFunc(m.ckpts, func(b *checkpoint) bool { return b.seq == c.base }); i < 0 || m.ckpts[i].bad {
				c.bad = true
				m.orphaned++
			}
		}
		switch {
		case c.bad:
			if rs.CheckpointSeq == 0 {
				rs.CheckpointsSkipped++
			}
		case rs.CheckpointSeq == 0:
			rs.CheckpointSeq, rs.CheckpointBase, rs.CheckpointVersion = c.seq, c.base, c.version
			w, from, oldest = m.table(c.w), c.seq, c.seq
			m.base, m.baseReg = c.seq, m.reg(c.w)
			if c.base != 0 {
				m.base = c.base
				m.spliced++
			}
		default:
			oldest = c.seq
		}
	}
	m.setBudget(j)
	next := from + 1
	if n := len(m.segs); n > 0 {
		next = max(next, m.segs[n-1].seq+1)
	}
	var kept []*segment
	for _, s := range m.segs {
		if s.seq < oldest || s.seq >= from && s.end == endShort {
			continue
		}
		s.live = 0
		if s.seq < from {
			kept = append(kept, s)
			continue
		}
		for _, r := range s.recs {
			fold(w, r.ups)
			rs.Records++
			rs.Updates += len(r.ups)
			if r.torn {
				m.resurrected++
			}
		}
		s.live = len(s.recs)
		if s.end != endHeadless {
			kept = append(kept, s)
		}
		if s.end != endClean {
			rs.Truncated, s.end = true, endClean
			break
		}
	}
	m.segs = append(kept, &segment{seq: next})
	return rs, w
}

// serial is the reference recovery: the checkpoint through RestoreState
// and every record through one IngestBatch call.
type serial struct{ e *engine.Engine }

func (s serial) Restore(st *engine.State) (uint64, error) {
	if err := s.e.RestoreState(st); err != nil {
		return 0, err
	}
	es := s.e.Stats()
	return uint64(es.Keys + es.ActiveEntries), nil
}
func (s serial) Replay(batch []engine.Update) error { return s.e.IngestBatch(batch) }

// boot recovers the directory into an engine of a random shard count
// under GOMAXPROCS 1, 2 or 4, through a store with a random fsync policy
// that a third of the boots wrap in injected faults. The recovery must
// report the predicted stats and leave the predicted files, and the
// engine must hold the surviving table. One that replays records must
// also equal a serial recovery of a copy of the directory taken before it.
// clean, when set, is the state the engine closed with after a final
// checkpoint: the boot must restore its bytes exactly, counters included.
func (m *model) boot(j int, clean *engine.State) {
	m.t.Helper()
	m.floor = 1 << (9 + m.rng.Intn(8))
	want, w := m.recovery(j)
	ref := ""
	if want.Records > 0 {
		ref = m.t.TempDir()
		if err := os.CopyFS(ref, os.DirFS(m.dir)); err != nil {
			m.t.Fatal(err)
		}
	}
	shards := 1 + m.rng.Intn(16)
	runtime.GOMAXPROCS(1 << m.rng.Intn(3))
	m.e, m.w = m.engine(shards), w
	inner, err := store.Open(m.dir, store.Options{Fsync: store.FsyncPolicy(m.rng.Intn(3))})
	if err != nil {
		m.t.Fatal(err)
	}
	store.SetWALBudgetFloor(inner, m.floor)
	m.st = inner
	if m.rng.Intn(3) == 0 {
		m.st = fault.WrapStore(inner, m.rng.Uint64(), fault.StoreFaults{AppendFailRate: 0.1, AppendTornRate: 0.1, CheckpointFailRate: 0.3})
	}
	var got store.RecoveryStats
	if m.p, got, err = store.Attach(m.e, m.st); err != nil {
		m.fail(j, "Attach: %v", err)
	}
	if got != want {
		m.fail(j, "recovered %+v, model %+v", got, want)
	}
	m.checkFiles(j)
	if ref != "" {
		m.checkSerial(j, ref, got)
	}
	if clean != nil {
		st := m.e.DumpState()
		st.Shards = clean.Shards
		if !bytes.Equal(store.EncodeState(st), store.EncodeState(clean)) {
			m.fail(j, "a clean restart changed the state bytes")
		}
	}
	m.check(j, m.e, w)
}

// checkSerial recovers the copy ref through serial and holds the running
// engine, recovered shard-parallel, to it: its stats, state bytes and
// engine stats, per-shard mutation counts included.
func (m *model) checkSerial(j int, ref string, got store.RecoveryStats) {
	se := m.engine(m.e.Stats().Shards)
	st, err := store.Open(ref, store.Options{Fsync: store.FsyncNever})
	if err != nil {
		m.t.Fatal(err)
	}
	sgot, err := st.Recover(serial{se})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil || sgot != got {
		m.fail(j, "serial recovery %+v (%v), shard-parallel %+v", sgot, err, got)
	}
	if !bytes.Equal(store.EncodeState(se.DumpState()), store.EncodeState(m.e.DumpState())) {
		m.fail(j, "shard-parallel recovery encodes differently from serial")
	}
	if gs, ss := m.e.Stats(), se.Stats(); !reflect.DeepEqual(gs, ss) {
		m.fail(j, "shard-parallel recovery stats %+v, serial %+v", gs, ss)
	}
}

// checkFiles holds the directory to the model's files: its segments and
// checkpoints and nothing else — so no temp file, at most two
// checkpoints after a checkpoint, and no segment below the older one.
func (m *model) checkFiles(j int) {
	var want, got []string
	for _, s := range m.segs {
		want = append(want, filepath.Base(m.segPath(s.seq)))
	}
	for _, c := range m.ckpts {
		want = append(want, filepath.Base(m.ckptPath(c.seq)))
	}
	slices.Sort(want)
	des, err := os.ReadDir(m.dir)
	if err != nil {
		m.t.Fatal(err)
	}
	for _, de := range des {
		got = append(got, de.Name())
	}
	if !slices.Equal(got, want) {
		m.fail(j, "directory holds %v, model %v", got, want)
	}
}

// check holds engine e to table w: its snapshot to SampleBottomK, and its
// encoded dump to that of a fresh engine fed the table once. The counters
// and the shard layout record how the state was reached, so they are
// copied over first, as bench/oracle.go does.
func (m *model) check(j int, e *engine.Engine, w [][]float64) {
	m.t.Helper()
	d, err := dataset.New(nil, w)
	if err != nil {
		m.t.Fatal(err)
	}
	batch, err := dataset.SampleBottomK(d, m.cfg.K, m.cfg.Hash)
	if err != nil {
		m.t.Fatal(err)
	}
	fresh := m.engine(3)
	var keys []uint64
	for key := range m.keys {
		for i := range w {
			if w[i][key] > 0 {
				if err := fresh.Ingest(i, uint64(key), w[i][key]); err != nil {
					m.t.Fatal(err)
				}
				if len(keys) == 0 || keys[len(keys)-1] != uint64(key) {
					keys = append(keys, uint64(key))
				}
			}
		}
	}
	snap := e.Snapshot()
	if !slices.Equal(snap.Keys, keys) {
		m.fail(j, "engine holds %d keys, the table %d", len(snap.Keys), len(keys))
	}
	for p, o := range snap.Sample.Outcomes {
		if b := batch.Outcomes[snap.Keys[p]]; !o.Same(b) {
			m.fail(j, "key %d: outcome %+v, SampleBottomK %+v", snap.Keys[p], o, b)
		}
	}
	if s := snap.Sample; s.SampledEntries != batch.SampledEntries || s.TotalEntries != batch.TotalEntries {
		m.fail(j, "sampled/total %d/%d, SampleBottomK %d/%d", s.SampledEntries, s.TotalEntries, batch.SampledEntries, batch.TotalEntries)
	}
	got, want := e.DumpState(), fresh.DumpState()
	got.Version, got.Ingests, got.Shards = want.Version, want.Ingests, want.Shards
	if !bytes.Equal(store.EncodeState(got), store.EncodeState(want)) {
		m.fail(j, "dump differs from a fresh engine fed the table once")
	}
}

// scripts are op streams that pin recovery rules: an empty newest segment
// (a crash inside openSegment) loses nothing written after the next boot;
// a checkpoint that failed validation goes with the next prune; a
// sketch-only checkpoint restores with its base's registry, and the one
// after that restore names the same base; and a deleted base sends
// recovery to the older full checkpoint, taking its sketch-only ones out;
// a flipped horizon byte fails the checkpoint, not the recovery; and on a
// registry that stopped growing, every WALBudgetPerFull+1-th checkpoint
// is full, across a restart too, so the retained files stay bounded.
var scripts = []struct {
	name string
	seed int64
	ops  []byte
}{
	{"segment shorter than its magic", 3, []byte{opBatch, opCheckpoint, opBatch, crash(dmgCutMagic), opBatch, opBatch, crash(dmgNone)}},
	{"corrupt checkpoint pruned", 4, []byte{opBatch, opCheckpoint, opBatch, opCheckpoint, opBatch, crash(dmgCorrupt), opBatch, opCheckpoint, crash(dmgNone)}},
	{"sketch-only restored and renamed base", 1, []byte{opBatch, opCheckpoint, opReweigh, opCheckpoint, opReweigh, crash(dmgNone), opCheckpoint, opReweigh, crash(dmgNone)}},
	{"deleted base falls back", 4, []byte{opBatch, opCheckpoint, opBatch, opCheckpoint, opReweigh, opCheckpoint, opReweigh, opCheckpoint, crash(dmgDeleteBase), opReweigh, opCheckpoint, crash(dmgNone)}},
	{"corrupt checkpoint header", 7, []byte{opBatch, opCheckpoint, opBatch, opCheckpoint, opBatch, crash(dmgCorrupt), opBatch, opCheckpoint, opBatch, crash(dmgCorrupt), opBatch, crash(dmgNone)}},
	{"sketch-only chain bounded", 1, []byte{opBatch, opCheckpoint, opReweigh, opCheckpoint, opReweigh, opCheckpoint, opReweigh, opCheckpoint,
		opReweigh, crash(dmgNone), opCheckpoint, opReweigh, opCheckpoint, opReweigh, opCheckpoint, opReweigh, opCheckpoint, crash(dmgNone)}},
}

// TestStoreMatchesModel runs the scripts and fixed seeds, and requires
// them to have run every op and every damage, to have resurrected a torn
// append, and to have taken a checkpoint on Due, written a sketch-only
// checkpoint, made one full at the chain bound, restored a sketch-only
// one, and judged one bad for its base.
func TestStoreMatchesModel(t *testing.T) {
	var ran [numOps]int
	var damaged [numDamages]int
	var resurrected, volume, sketches, chained, spliced, orphaned int
	tally := func(m *model) {
		for op, n := range m.ran {
			ran[op] += n
		}
		for d, n := range m.damaged {
			damaged[d] += n
		}
		resurrected += m.resurrected
		volume += m.volume
		sketches += m.sketches
		chained += m.chained
		spliced += m.spliced
		orphaned += m.orphaned
	}
	for _, s := range scripts {
		t.Run(s.name, func(t *testing.T) { tally(runModel(t, s.seed, s.ops)) })
	}
	for seed := int64(1); seed <= 12; seed++ {
		ops := make([]byte, 32)
		rand.New(rand.NewSource(-seed)).Read(ops)
		tally(runModel(t, seed, ops))
	}
	t.Logf("due %d, sketch-only %d, chain-bound full %d, spliced %d, orphaned %d, resurrected %d",
		volume, sketches, chained, spliced, orphaned, resurrected)
	for name, n := range map[string]int{"took a checkpoint on Due": volume, "wrote a sketch-only checkpoint": sketches,
		"made a checkpoint full at the chain bound": chained, "restored a sketch-only checkpoint": spliced,
		"judged a sketch-only checkpoint bad for its base": orphaned} {
		if n == 0 {
			t.Errorf("no run %s", name)
		}
	}
	for op, n := range ran {
		if n == 0 {
			t.Errorf("op %d never ran", op)
		}
	}
	for d, n := range damaged {
		if n == 0 {
			t.Errorf("damage %d never ran", d)
		}
	}
	if resurrected == 0 {
		t.Error("no recovery replayed a torn append")
	}
}

// FuzzStoreMatchesModel runs the harness over fuzzed op streams (at most
// 64 ops); seed fixes the configuration, keys, weights and faults.
func FuzzStoreMatchesModel(f *testing.F) {
	for _, s := range scripts {
		f.Add(s.seed, s.ops)
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		runModel(t, seed, ops[:min(len(ops), 64)])
	})
}
