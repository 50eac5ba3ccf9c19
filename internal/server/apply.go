package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/engine"
)

// This file is the one apply step of the write path. An update batch is
// the same operation however it arrived — a JSON /v1/ingest body, a
// binary /v1/stream frame, a coordinator-routed share — so both handlers
// only turn their input into []engine.Update and hand the request's
// batches to applier.run, the single place that charges the backpressure
// gate, consults the idempotency record (idempotency.go), runs the
// Ingestor's write session, moves the counters and decides what a
// refused or failed batch answers:
//
//	429 rate_limited  in-flight budget or client token bucket exhausted
//	400 bad_request   the engine rejected an update (instance out of
//	                  range, negative or non-finite weight)
//	500 internal      the write-ahead journal failed (disk full, store
//	                  closed): the server's fault, so clients and
//	                  coordinators retry it
//	503 unavailable   a routed batch's owner node is unreachable
//
// A batch counts as applied only when the Ingestor reports it: the local
// engine reports each batch as it folds it, a coordinator once every
// owner acknowledged its share. The idempotency record and the counters
// follow those reports, so they never count a batch the session did not
// land.

// applier carries one write request through the apply step: its client
// identity, its idempotency record and the progress its response reports.
type applier struct {
	s      *Server
	ctx    context.Context
	client string
	rec    *idemRecord // nil without an Idempotency-Key header
	// framed marks a /v1/stream request: its errors name the frame and
	// the applied progress (the torn-frame contract) and its batches move
	// the wire stream counters. A /v1/ingest body is one unframed batch.
	framed bool

	seq                           int // batches read, skipped ones included
	frames, updates               int
	skippedFrames, skippedUpdates int
	// pending holds the batches read but not yet resolved, in request
	// order: handed to the Ingestor and not yet reported applied, or
	// skipped behind such a batch. head is the first unresolved one.
	pending []pendingBatch
	head    int
	// stopStatus/stopErr record why the request's own input stopped the
	// session (torn frame, refused charge), as opposed to the Ingestor.
	stopStatus int
	stopErr    error
}

// pendingBatch is one read batch awaiting resolution.
type pendingBatch struct {
	seq, n int
	digest uint64
	skip   bool // an idempotent replay: never handed to the Ingestor
}

// beginApply opens the request's write session and checks it against
// the in-flight budget; the caller must s.endApply() once the request
// ends. A refused session is closed before beginApply returns.
func (s *Server) beginApply(r *http.Request, framed bool) (*applier, error) {
	if !s.gate.admitSession(s.writes.Add(1)) {
		s.endApply()
		return nil, &rateLimitError{retryAfter: time.Second,
			error: fmt.Errorf("ingest in-flight budget (%d) exhausted", s.gate.maxInflight)}
	}
	a := &applier{s: s, ctx: r.Context(), client: clientKey(r), framed: framed}
	if key := r.Header.Get("Idempotency-Key"); key != "" {
		a.rec = s.idem.get(key)
	}
	return a, nil
}

// endApply closes a write session. The one that leaves none open tells
// the push loop, without blocking, that the burst it waits on is over.
func (s *Server) endApply() {
	if s.writes.Add(-1) == 0 {
		select {
		case s.writesEnded <- struct{}{}:
		default:
		}
	}
}

// run is the request's write session. read returns the request's next
// batch, io.EOF at its end, or the error that ends it (a 400); each batch
// goes through the idempotency record and the gate before the Ingestor
// gets it. A non-nil error comes with the HTTP status it answers; batches
// applied before it stay applied (the write path is not transactional,
// exactly like sequential requests).
func (a *applier) run(read func() ([]engine.Update, error)) (int, error) {
	err := a.s.ingest.Ingest(a.ctx, func() ([]engine.Update, error) {
		for {
			batch, err := read()
			if err != nil {
				if err != io.EOF {
					a.stopStatus, a.stopErr = http.StatusBadRequest, err
				}
				return nil, err
			}
			var digest uint64
			if a.rec != nil {
				digest = frameDigest(batch)
				if a.rec.seen(a.seq, digest) {
					// Applied by an earlier attempt under this key: no
					// Ingestor call, no token charge, no traffic counters.
					a.pending = append(a.pending, pendingBatch{seq: a.seq, n: len(batch), skip: true})
					a.seq++
					a.s.wire.streamDeduped.Add(1)
					a.settle(0)
					continue
				}
			}
			if ok, retryAfter := a.s.gate.admit(a.client, len(batch)); !ok {
				if retryAfter <= 0 {
					retryAfter = time.Second
				}
				a.stopStatus = http.StatusTooManyRequests
				a.stopErr = &rateLimitError{retryAfter: retryAfter,
					error: fmt.Errorf("rate limit: %d updates exceed the client budget", len(batch))}
				return nil, a.stopErr
			}
			a.pending = append(a.pending, pendingBatch{seq: a.seq, n: len(batch), digest: digest})
			a.seq++
			return batch, nil
		}
	}, a.settle)
	switch {
	case err == nil:
		return http.StatusOK, nil
	case err == a.stopErr:
		return a.stopStatus, a.describe(err)
	}
	return ingestStatus(err), a.describe(err)
}

// settle resolves the pending batches the Ingestor just reported: n more
// handed batches applied, in order. Skipped batches resolve as soon as
// everything before them has.
func (a *applier) settle(n int) {
	for ; a.head < len(a.pending); a.head++ {
		p := a.pending[a.head]
		if p.skip {
			a.skippedFrames++
			a.skippedUpdates += p.n
			continue
		}
		if n == 0 {
			break
		}
		n--
		if a.rec != nil {
			a.rec.applied(p.seq, p.digest)
		}
		a.frames++
		a.updates += p.n
		if a.framed {
			a.s.wire.streamFrames.Add(1)
			a.s.wire.streamUpdates.Add(uint64(p.n))
		}
	}
	if a.head == len(a.pending) {
		a.pending, a.head = a.pending[:0], 0
	}
}

// describe decorates a framed request's error with the applied progress:
// every batch before the first unresolved one is in the engine, applied
// now or by an earlier attempt under the same key. A stream client
// resumes from there instead of guessing.
func (a *applier) describe(err error) error {
	if !a.framed {
		return err
	}
	pos := a.seq
	if a.head < len(a.pending) {
		pos = a.pending[a.head].seq
	}
	return &progressError{err: err, frames: pos, updates: a.updates + a.skippedUpdates}
}

// progressError is a failed stream's error with its applied progress,
// which the envelope reports as applied_frames / applied_updates.
type progressError struct {
	err             error
	frames, updates int
}

func (e *progressError) Error() string {
	return fmt.Sprintf("frame %d: %v (%d updates from %d frames already applied)", e.frames, e.err, e.updates, e.frames)
}

func (e *progressError) Unwrap() error { return e.err }

// ingestStatus maps an Ingestor failure: an unavailable backend (routed
// ingest whose owner node is down) is 503, a failed write-ahead journal
// 500, anything else the request's fault — 400.
func ingestStatus(err error) int {
	switch {
	case unavailable(err):
		return http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrJournal):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}
