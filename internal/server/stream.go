package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/store"
)

// POST /v1/stream is the binary ingest path: one long-lived request whose
// chunked body is a stream of update frames (store.AppendFrame /
// store.FrameScanner — the bytes the WAL journals). Each decoded frame
// goes through the one apply step (apply.go) — no JSON, no per-batch
// request round-trip, no per-frame allocations (the scanner and the
// engine's batch pool both reuse scratch). Backpressure is the
// transport's: a single node reads a frame only after applying the
// previous one, so a sender can never run ahead of the engine by more
// than the socket and bufio windows. A coordinator reads ahead by at most
// its route's replay bound (internal/cluster).
//
// The stream ends when the client closes the request body (clean EOF on a
// frame boundary) or when the server starts draining; the response then
// reports what was applied:
//
//	{"frames": N, "updates": M, "skipped_frames": S, "skipped_updates": T,
//	 "draining": bool}
//
// A torn or corrupt frame aborts the stream with a 400, a frame the apply
// step refuses or fails with that step's status; either way the envelope
// carries applied_frames / applied_updates and the message repeats them:
// the stream's first applied_frames frames are in the engine (applied by
// this request or, under a replayed Idempotency-Key, by an earlier one),
// so a client resumes from exact progress instead of guessing. Applied
// frames stay applied.

// wireStats counts streaming-ingest and subscription traffic; all fields
// are atomics shared by handlers, the broadcaster and /v1/stats.
type wireStats struct {
	streamsActive atomic.Int64
	streamFrames  atomic.Uint64
	streamUpdates atomic.Uint64
	streamDeduped atomic.Uint64

	subsActive atomic.Int64
	pushed     atomic.Uint64
	coalesced  atomic.Uint64
	dropped    atomic.Uint64
	heartbeats atomic.Uint64
	resumes    atomic.Uint64
}

// WireStats is the JSON view of the wire counters in /v1/stats.
type WireStats struct {
	// ActiveStreams gauges open /v1/stream connections.
	ActiveStreams int64 `json:"active_streams"`
	// StreamFrames and StreamUpdates count decoded-and-applied binary
	// frames and the updates they carried.
	StreamFrames  uint64 `json:"stream_frames"`
	StreamUpdates uint64 `json:"stream_updates"`
	// StreamFramesDeduped counts frames skipped because an earlier
	// request with the same Idempotency-Key already applied them.
	StreamFramesDeduped uint64 `json:"stream_frames_deduped"`
	// ActiveSubscribers gauges open /v1/subscribe connections.
	ActiveSubscribers int64 `json:"active_subscribers"`
	// PushedEvents counts estimate events delivered into subscriber
	// buffers (initial pushes included).
	PushedEvents uint64 `json:"pushed_events"`
	// CoalescedEvents counts version-change wakeups absorbed into an
	// already-pending push round by the debounce window.
	CoalescedEvents uint64 `json:"coalesced_events"`
	// DroppedEvents counts undelivered events discarded because a slow
	// consumer's buffer was full (the consumer's next event supersedes
	// them; ingest never blocks).
	DroppedEvents uint64 `json:"dropped_events"`
	// Heartbeats counts SSE keepalive comments written.
	Heartbeats uint64 `json:"heartbeats"`
	// Resumes counts subscriptions that arrived with a valid
	// Last-Event-ID header (SSE reconnects resuming from a known version).
	Resumes uint64 `json:"resumes"`
}

func (w *wireStats) view() WireStats {
	return WireStats{
		ActiveStreams:       w.streamsActive.Load(),
		StreamFrames:        w.streamFrames.Load(),
		StreamUpdates:       w.streamUpdates.Load(),
		StreamFramesDeduped: w.streamDeduped.Load(),
		ActiveSubscribers:   w.subsActive.Load(),
		PushedEvents:        w.pushed.Load(),
		CoalescedEvents:     w.coalesced.Load(),
		DroppedEvents:       w.dropped.Load(),
		Heartbeats:          w.heartbeats.Load(),
		Resumes:             w.resumes.Load(),
	}
}

func (s *Server) handleStream(r *http.Request) (int, any, error) {
	if err := checkParams(r.URL.Query()); err != nil {
		return http.StatusBadRequest, nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" && ct != store.StreamContentType {
		return http.StatusUnsupportedMediaType, nil,
			fmt.Errorf("content type %q (want %s)", ct, store.StreamContentType)
	}
	a, err := s.beginApply(r, true)
	if err != nil {
		return http.StatusTooManyRequests, nil, err
	}
	defer s.endApply()

	s.wire.streamsActive.Add(1)
	defer s.wire.streamsActive.Add(-1)

	sc := store.NewFrameScanner(r.Body)
	defer sc.Release()
	// Check the drain gate between frames (never mid-frame): on shutdown
	// the connection finishes its current batch and answers with what it
	// applied, instead of being cut mid-record.
	draining := false
	if status, err := a.run(func() ([]engine.Update, error) {
		if draining = s.draining(); draining {
			return nil, io.EOF
		}
		return sc.Next()
	}); err != nil {
		return status, nil, err
	}
	return http.StatusOK, map[string]any{
		"frames":          a.frames,
		"updates":         a.updates,
		"skipped_frames":  a.skippedFrames,
		"skipped_updates": a.skippedUpdates,
		"draining":        draining,
	}, nil
}

// Drain moves the server into connection-draining mode: open /v1/stream
// requests finish their current frame and respond, open /v1/subscribe
// connections receive a final "drain" event and close, and new frames or
// subscriptions are refused. Idempotent; monestd calls it before
// http.Server.Shutdown so long-lived connections do not hold shutdown
// open until the timeout kills them.
func (s *Server) Drain() {
	// Cancelling the drain context closes the Done channel that streams,
	// subscriptions and the push loop watch, and aborts a push round's
	// in-flight cluster scatter-gather instead of letting it ride out its
	// full per-node timeout and retry budget.
	s.drainCancel()
}

// draining reports whether Drain was called.
func (s *Server) draining() bool { return s.drainCtx.Err() != nil }

var errDraining = errors.New("server is draining (shutting down)")
