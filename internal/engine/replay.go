package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// replayQueueUpdates caps the updates a Replay holds queued across all of
// its workers. Add blocks while a record would push the queue past it; a
// record larger than the cap (a WAL record may carry ~52k updates) is
// admitted alone into an empty queue. Replay memory is therefore bounded
// by updates, not records, however long the log.
const replayQueueUpdates = 1 << 14

// Replay is the engine's boot-time bulk fold: it applies a recovered WAL
// tail on min(GOMAXPROCS, shards) workers. Worker w owns the shards
// s ≡ w (mod workers); every worker takes the records in Add order and
// folds only its own shards' segments of each. Each shard therefore sees
// exactly the update sequence a serial IngestBatch loop gives it, so the
// result is bit-identical to that loop's — the sketch, the key registry's
// slot order, Version, Ingests and every per-shard mutation counter —
// with no appeal to the fold's order-independence.
//
// A Replay bypasses the journal and the cut barrier: it is for an engine
// that receives no other traffic until Wait returns (internal/store
// replays before attaching the journal). Add is called from one
// goroutine; Wait must be called exactly once, after the last Add, on
// success and on error alike — it is what stops the workers.
type Replay struct {
	e       *Engine
	workers []chan *replayRecord
	wg      sync.WaitGroup
	// mu guards the queued-update count and the record free list; room
	// wakes an Add waiting for the queue to drain.
	mu     sync.Mutex
	room   sync.Cond
	queued int
	free   []*replayRecord
}

// replayRecord is one bucketed record in flight: refs counts the workers
// that have yet to fold their segments of it; the last one recycles it.
type replayRecord struct {
	batchScratch
	refs atomic.Int32
}

// Replay starts a bulk replay into the engine (see Replay).
func (e *Engine) Replay() *Replay {
	n := min(runtime.GOMAXPROCS(0), len(e.shards))
	r := &Replay{e: e, workers: make([]chan *replayRecord, n)}
	r.room.L = &r.mu
	r.wg.Add(n)
	for w := range r.workers {
		// The update cap binds first on 256-update records; the channel
		// bound caps how many small records queue.
		in := make(chan *replayRecord, 64)
		r.workers[w] = in
		go r.work(w, in)
	}
	return r
}

// Add validates and buckets one record on the caller's goroutine (the
// validate-and-bucket step IngestBatch uses) and queues it for the
// workers. A rejected update fails the record whole, with IngestBatch's
// error, and queues nothing; records added before it still apply.
func (r *Replay) Add(batch []Update) error {
	r.mu.Lock()
	var rec *replayRecord
	if n := len(r.free); n > 0 {
		rec, r.free = r.free[n-1], r.free[:n-1]
	} else {
		rec = &replayRecord{}
	}
	r.mu.Unlock()
	err := r.e.bucket(batch, &rec.batchScratch)
	n := len(rec.buf)
	r.mu.Lock()
	if err != nil || n == 0 {
		r.free = append(r.free, rec)
		r.mu.Unlock()
		return err
	}
	for r.queued > 0 && r.queued+n > replayQueueUpdates {
		r.room.Wait()
	}
	r.queued += n
	r.mu.Unlock()
	rec.refs.Store(int32(len(r.workers)))
	for _, in := range r.workers {
		in <- rec
	}
	return nil
}

// Wait stops the workers once they have folded every added record. Its
// mutation signal may be spurious (nothing changed), which is harmless:
// consumers re-read Version.
func (r *Replay) Wait() {
	for _, in := range r.workers {
		close(in)
	}
	r.wg.Wait()
	r.e.notifyMutation()
}

// work folds worker w's shards' segment of every record, in Add order.
func (r *Replay) work(w int, in <-chan *replayRecord) {
	defer r.wg.Done()
	stride := len(r.workers)
	for rec := range in {
		for s := w; s < len(rec.counts); s += stride {
			lo := 0
			if s > 0 {
				lo = rec.counts[s-1]
			}
			if hi := rec.counts[s]; hi > lo {
				r.e.shards[s].fold(r.e, rec.buf[lo:hi])
			}
		}
		if rec.refs.Add(-1) == 0 {
			r.mu.Lock()
			r.queued -= len(rec.buf)
			r.free = append(r.free, rec)
			r.room.Signal()
			r.mu.Unlock()
		}
	}
}
