package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/streamclient"
)

// This file is the coordinator's write path. One write request — a
// client's /v1/stream, a JSON /v1/ingest body, a one-frame IngestBatch —
// is one route: each client frame splits by ring owner, and each share
// goes as one frame down its owner's upstream, a keyed POST /v1/stream
// opened at the node's first share. The route answers only after every
// upstream has, so read-your-writes holds at the response.
//
// The applied client frames are the longest prefix every share of which
// its owner acknowledged: a failed node's applied_frames maps back
// through its upstream's list of client frames. A live owner's share past
// the prefix stays applied, which max-union folds make harmless. An
// upstream keeps the shares the route handed it as its replay buffer; a
// retry replays them under the same key, and the node's idempotency
// record skips what it already applied, so its counters stay exact.
//
// An upstream's stream ends early, with everything it carried
// acknowledged, in two cases: it carries the breaker's half-open probe,
// which settles on the shares at hand instead of holding the node's one
// probe slot while the client streams on; or the client sent nothing for
// the node timeout, so an idle client does not hold one of the node's
// in-flight slots. The next share opens a new stream under a fresh key.

const (
	// ingestFrameUpdates chunks a share larger than one frame (a big JSON
	// /v1/ingest batch); every chunk maps to the same client frame. Well
	// under store.MaxStreamFrameBytes at ~17 B/update encoded.
	ingestFrameUpdates = 4096
	// maxReplayUpdates bounds the updates one segment holds for replay
	// (768 KiB decoded), so a long stream costs the coordinator no more
	// memory than a short one; maxReplayFrames keeps the segment's frames,
	// client and upstream, inside the node's per-key idempotency record.
	maxReplayUpdates = 1 << 15
	maxReplayFrames  = 1024
)

// route is one write request in flight; the request's goroutine owns it.
type route struct {
	c   *Coordinator
	ctx context.Context
	// ups and arenas are by node index: the segment's upstream (nil
	// before the node's first share) and its shares, back to back; start
	// is add's scratch.
	ups    []*upstream
	arenas [][]engine.Update
	start  []int
	// frames and updates count the open segment's client frames and
	// updates; upFrames is the most frames any one upstream holds.
	frames, updates, upFrames int
	// failed is set once an upstream has failed for good.
	failed atomic.Bool
}

// Ingest implements internal/server's Ingestor: the request's frames go
// out as one route, reported applied as each segment seals. It returns
// the first owner failure (an Unavailable NodeError is a 503 through
// internal/server), else next's error. ctx (the serving request's
// context) cancels every upstream, so an aborted client does not pin the
// coordinator for the per-node timeout and retry budget.
func (c *Coordinator) Ingest(ctx context.Context, next func() ([]engine.Update, error), applied func(n int)) error {
	n := len(c.nodes)
	r := &route{c: c, ctx: ctx, ups: make([]*upstream, n), arenas: make([][]engine.Update, n), start: make([]int, n)}
	var srcErr error
	for !r.failed.Load() {
		batch, err := next()
		if err != nil {
			if err != io.EOF {
				srcErr = err
			}
			break
		}
		r.add(batch)
		if r.updates >= maxReplayUpdates || max(r.frames, r.upFrames) >= maxReplayFrames {
			done, err := r.seal()
			applied(done)
			if err != nil {
				return err
			}
		}
	}
	done, err := r.seal()
	applied(done)
	if err != nil {
		return err
	}
	return srcErr
}

// IngestBatch routes one batch: a one-frame Ingest. It returns once every
// owner applied its share, or with the first owner failure (other owners'
// shares stay applied — the same non-transactional semantics as
// sequential /v1/ingest batches on one node).
func (c *Coordinator) IngestBatch(ctx context.Context, batch []engine.Update) error {
	sent := false
	return c.Ingest(ctx, func() ([]engine.Update, error) {
		if sent {
			return nil, io.EOF
		}
		sent = true
		return batch, nil
	}, func(int) {})
}

// add splits one client frame by owner into the arenas (the caller's
// batch is scratch it reuses) and hands each share to its upstream.
func (r *route) add(batch []engine.Update) {
	frame := r.frames
	r.frames++
	r.updates += len(batch)
	for i, a := range r.arenas {
		r.start[i] = len(a)
	}
	for _, u := range batch {
		i := r.c.ring.Owner(u.Key)
		r.arenas[i] = append(r.arenas[i], u)
	}
	for i, a := range r.arenas {
		for lo := r.start[i]; lo < len(a); lo += ingestFrameUpdates {
			hi := min(lo+ingestFrameUpdates, len(a))
			r.send(i, frame, a[lo:hi:hi])
		}
	}
}

// send hands one share to node i's upstream, opening it on first use.
// It never blocks: the segment bound caps what an upstream can fall
// behind by, and the seal waits for it.
func (r *route) send(i, frame int, share []engine.Update) {
	u := r.ups[i]
	fresh := u == nil
	if fresh {
		u = &upstream{n: r.c.nodes[i], newKey: r.c.newKey, wake: make(chan struct{}, 1), done: make(chan struct{})}
		u.key = u.newKey()
		r.ups[i] = u
	}
	u.frames = append(u.frames, frame)
	r.upFrames = max(r.upFrames, len(u.frames))
	u.mu.Lock()
	u.shares = append(u.shares, share)
	u.mu.Unlock()
	if fresh {
		go u.run(r.ctx, &r.failed)
	} else {
		u.poke()
	}
}

// newKey mints the Idempotency-Key of one upstream stream.
func (c *Coordinator) newKey() string {
	return fmt.Sprintf("%s-%d", c.idemBase, c.idemSeq.Add(1))
}

// seal ends the open segment: it seals every upstream, waits for every
// answer and returns how many of the segment's client frames are applied,
// with the first owner failure. RoutedUpdates grows by every share an
// owner acknowledged, inside the prefix or not.
func (r *route) seal() (int, error) {
	for _, u := range r.ups {
		if u != nil {
			u.mu.Lock()
			u.sealed = true
			u.mu.Unlock()
			u.poke()
		}
	}
	applied := r.frames
	var err error
	for i, u := range r.ups {
		if u == nil {
			continue
		}
		<-u.done
		acked := min(u.acked, len(u.shares))
		routed := 0
		for _, share := range u.shares[:acked] {
			routed += len(share)
		}
		r.c.stats.routed.Add(uint64(routed))
		if u.err != nil {
			if acked < len(u.frames) {
				applied = min(applied, u.frames[acked])
			}
			if err == nil {
				err = u.err
			}
		}
		r.ups[i] = nil
		r.arenas[i] = r.arenas[i][:0]
	}
	r.frames, r.updates, r.upFrames = 0, 0, 0
	return applied, err
}

// upstream is one node's share of a route segment: the shares the route
// hands it and the streams that carry them to the node.
type upstream struct {
	n      *nodeClient
	newKey func() string
	// frames is the route's: the client frame of each share.
	frames []int
	// mu guards what the route hands over: the shares, in order (the
	// replay buffer), and sealed, set when the segment ends. wake (cap 1)
	// tells run's goroutine to look again; done closes once the node has
	// answered for good.
	mu     sync.Mutex
	shares [][]engine.Update
	sealed bool
	wake   chan struct{}
	done   chan struct{}
	// run's, read by the route after done: the current stream's key, the
	// shares acknowledged under earlier keys (base) and in all (acked),
	// and the final failure.
	key         string
	base, acked int
	err         error
}

func (u *upstream) poke() {
	select {
	case u.wake <- struct{}{}:
	default:
	}
}

// take returns share i once the route has handed it over. It reports
// false once the segment sealed without it, or after wait: none when 0,
// no limit when negative.
func (u *upstream) take(i int, wait time.Duration) ([]engine.Update, bool) {
	var expired <-chan time.Time
	for {
		u.mu.Lock()
		var share []engine.Update
		have, sealed := i < len(u.shares), u.sealed
		if have {
			share = u.shares[i]
		}
		u.mu.Unlock()
		switch {
		case have:
			return share, true
		case sealed || wait == 0:
			return nil, false
		case wait > 0 && expired == nil:
			t := time.NewTimer(wait)
			defer t.Stop()
			expired = t.C
		}
		select {
		case <-u.wake:
		case <-expired:
			return nil, false
		}
	}
}

// run drives the upstream's streams through the node's retry budget and
// breaker. A stream that ended early with every share it carried
// acknowledged is followed, at the next share, by one under a fresh key.
func (u *upstream) run(ctx context.Context, failed *atomic.Bool) {
	defer close(u.done)
	for {
		if u.err = u.n.retrying(ctx, u.attempt); u.err != nil {
			failed.Store(true)
			return
		}
		if _, ok := u.take(u.acked, -1); !ok {
			return
		}
		u.base, u.key = u.acked, u.newKey()
	}
}

// attempt is one try: open the keyed stream, replay the shares an earlier
// attempt under this key sent, forward the route's shares as they come,
// and at the seal — or early, as a probe or on an idle client — wait for
// the node's answer. n.timeout bounds each write and that wait, not the
// stream's lifetime.
func (u *upstream) attempt(ctx context.Context, probe bool) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watchdog := time.AfterFunc(u.n.timeout, cancel)
	defer watchdog.Stop()
	s, err := streamclient.OpenKeyedStream(ctx, u.n.hc, u.n.addr, u.key)
	if err != nil {
		return &NodeError{Addr: u.n.addr, Err: err}
	}
	wait := u.n.timeout
	if probe {
		wait = 0
	}
	sent := 0
	for ; err == nil; sent++ {
		watchdog.Stop()
		share, ok := u.take(u.base+sent, wait)
		if !ok {
			break
		}
		watchdog.Reset(u.n.timeout)
		err = s.Send(share) // on failure Close returns the cause
	}
	watchdog.Reset(u.n.timeout)
	sum, err := s.Close()
	var se *streamclient.StreamError
	switch {
	case err == nil:
		u.acked = max(u.acked, u.base+sum.Frames+sum.SkippedFrames)
		if u.acked < u.base+sent {
			return &NodeError{Addr: u.n.addr, Status: http.StatusServiceUnavailable,
				Err: fmt.Errorf("node stopped after %d of %d frames (draining=%v)", u.acked-u.base, sent, sum.Draining)}
		}
		return nil
	case errors.As(err, &se):
		u.acked = max(u.acked, u.base+se.AppliedFrames)
		return &NodeError{Addr: u.n.addr, Status: se.Status, Err: errors.New(se.Message)}
	}
	return &NodeError{Addr: u.n.addr, Err: err}
}
