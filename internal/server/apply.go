package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/engine"
)

// This file is the one apply step of the write path. An update batch is
// the same operation however it arrived — a JSON /v1/ingest body, a
// binary /v1/stream frame, a coordinator-routed share — so both handlers
// only turn their input into []engine.Update and hand each batch to
// applier.apply, the single place that charges the backpressure gate,
// consults the idempotency record (idempotency.go), calls the Ingestor,
// moves the counters and decides what a refused or failed batch answers:
//
//	429 rate_limited  in-flight budget or client token bucket exhausted
//	400 bad_request   the engine rejected an update (instance out of
//	                  range, negative or non-finite weight)
//	500 internal      the write-ahead journal failed (disk full, store
//	                  closed): the server's fault, so clients and
//	                  coordinators retry it
//	503 unavailable   a routed batch's owner node is unreachable

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

	seq                           int // batch position, skipped ones included
	frames, updates               int
	skippedFrames, skippedUpdates int
}

// beginApply claims the request's in-flight slot; the caller must
// s.gate.release() it when the request ends.
func (s *Server) beginApply(r *http.Request, framed bool) (*applier, error) {
	a := &applier{s: s, ctx: r.Context(), client: clientKey(r), framed: framed}
	if !s.gate.acquire() {
		return nil, a.limited(time.Second,
			fmt.Errorf("ingest in-flight budget (%d) exhausted", s.gate.maxInflight))
	}
	if key := r.Header.Get("Idempotency-Key"); key != "" {
		a.rec = s.idem.get(key)
	}
	return a, nil
}

// apply runs one batch through the idempotency record, the gate and the
// Ingestor. A non-nil error comes with the HTTP status it answers;
// batches applied before it stay applied (the write path is not
// transactional, exactly like sequential requests).
func (a *applier) apply(batch []engine.Update) (int, error) {
	var digest uint64
	if a.rec != nil {
		digest = frameDigest(batch)
		if a.rec.seen(a.seq, digest) {
			// Applied by an earlier attempt under this key: no engine
			// apply, no token charge, no traffic counters.
			a.seq++
			a.skippedFrames++
			a.skippedUpdates += len(batch)
			a.s.wire.streamDeduped.Add(1)
			return http.StatusOK, nil
		}
	}
	if ok, retryAfter := a.s.gate.admit(a.client, len(batch)); !ok {
		return http.StatusTooManyRequests, a.limited(retryAfter, a.describe(
			fmt.Errorf("rate limit: %d updates exceed the client budget", len(batch))))
	}
	if err := a.s.ingest.IngestBatch(a.ctx, batch); err != nil {
		return ingestStatus(err), a.describe(err)
	}
	if a.rec != nil {
		a.rec.applied(a.seq, digest)
	}
	a.seq++
	a.frames++
	a.updates += len(batch)
	if a.framed {
		a.s.wire.streamFrames.Add(1)
		a.s.wire.streamUpdates.Add(uint64(len(batch)))
	}
	return http.StatusOK, nil
}

// describe decorates a framed request's error with the frame position
// and the applied progress, so a stream client resumes instead of
// guessing.
func (a *applier) describe(err error) error {
	if !a.framed {
		return err
	}
	return fmt.Errorf("frame %d: %w (%d updates from %d frames already applied)", a.seq, err, a.updates, a.frames)
}

// limited builds the 429 error for a refused charge; a framed request's
// envelope also carries the applied progress.
func (a *applier) limited(retryAfter time.Duration, err error) *rateLimitError {
	rl := &rateLimitError{error: err, retryAfter: retryAfter, appliedFrames: -1, appliedUpdates: -1}
	if rl.retryAfter <= 0 {
		rl.retryAfter = time.Second
	}
	if a.framed {
		rl.appliedFrames, rl.appliedUpdates = a.frames, a.updates
	}
	return rl
}

// ingestStatus maps an Ingestor failure: an unavailable backend (routed
// ingest whose owner node is down) is 503, a failed write-ahead journal
// 500, anything else the request's fault — 400.
func ingestStatus(err error) int {
	var u interface{ Unavailable() bool }
	switch {
	case errors.As(err, &u) && u.Unavailable():
		return http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrJournal):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}
