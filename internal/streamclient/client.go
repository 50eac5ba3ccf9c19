// Package streamclient is the client side of monestd's streaming wire:
// a binary ingest stream writer (POST /v1/stream) and a Server-Sent
// Events subscriber (GET /v1/subscribe). cmd/loadgen and the e2e suite
// drive the daemon through it, and a cluster coordinator routes its
// writes to the owner nodes over keyed streams (internal/cluster);
// external Go writers can use it too.
package streamclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// StreamSummary is the server's response to a finished ingest stream.
type StreamSummary struct {
	Frames  int `json:"frames"`
	Updates int `json:"updates"`
	// SkippedFrames/SkippedUpdates count frames the server recognized as
	// idempotent replays (same Idempotency-Key, position and digest) and
	// did not re-apply.
	SkippedFrames  int  `json:"skipped_frames"`
	SkippedUpdates int  `json:"skipped_updates"`
	Draining       bool `json:"draining"`
}

// StreamError is a stream rejection: any non-200 answer, decoded from the
// server's error envelope when it sent one — the 429 backpressure and
// torn-frame contracts in client form. A stream that dies with a
// transport error (no HTTP response) yields a plain error instead.
type StreamError struct {
	Status int
	Code   string // empty when the body was not the structured envelope
	// Message is the envelope's message, or the raw body without one.
	Message string
	// RetryAfter is the server's retry hint (zero when absent).
	RetryAfter time.Duration
	// AppliedFrames/AppliedUpdates report how much of the stream is
	// applied: its first AppliedFrames frames, by this request or an
	// earlier one under the same Idempotency-Key (-1: the envelope
	// omitted them — not a mid-stream rejection).
	AppliedFrames  int
	AppliedUpdates int
}

func (e *StreamError) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("stream: status %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("stream: status %d (%s): %s", e.Status, e.Code, e.Message)
}

// RateLimited reports whether the rejection is the backpressure 429 the
// client should back off and retry.
func (e *StreamError) RateLimited() bool { return e.Status == http.StatusTooManyRequests }

// parseStreamError decodes the server's error envelope, falling back to
// the raw body as the message when there is none.
func parseStreamError(status int, body []byte) *StreamError {
	var env struct {
		Error struct {
			Code              string  `json:"code"`
			Message           string  `json:"message"`
			RetryAfterSeconds float64 `json:"retry_after_seconds"`
			AppliedFrames     *int    `json:"applied_frames"`
			AppliedUpdates    *int    `json:"applied_updates"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		return &StreamError{Status: status, Message: strings.TrimSpace(string(body)),
			AppliedFrames: -1, AppliedUpdates: -1}
	}
	se := &StreamError{
		Status:         status,
		Code:           env.Error.Code,
		Message:        env.Error.Message,
		RetryAfter:     time.Duration(env.Error.RetryAfterSeconds * float64(time.Second)),
		AppliedFrames:  -1,
		AppliedUpdates: -1,
	}
	if env.Error.AppliedFrames != nil {
		se.AppliedFrames = *env.Error.AppliedFrames
	}
	if env.Error.AppliedUpdates != nil {
		se.AppliedUpdates = *env.Error.AppliedUpdates
	}
	return se
}

// Stream is one open binary ingest connection. Send frames with Send;
// Close ends the stream and returns the server's summary. Not safe for
// concurrent use.
type Stream struct {
	pw   *io.PipeWriter
	resp chan streamResult
	buf  []byte
}

type streamResult struct {
	summary StreamSummary
	err     error
}

// OpenStream starts a POST /v1/stream request against baseURL (e.g.
// "http://127.0.0.1:8080") using the client (nil = http.DefaultClient).
// The request body is chunked: frames flow as Send is called, so one
// connection carries an unbounded update stream with the server applying
// batches as they arrive.
func OpenStream(ctx context.Context, client *http.Client, baseURL string) (*Stream, error) {
	return OpenKeyedStream(ctx, client, baseURL, "")
}

// OpenKeyedStream is OpenStream with an idempotency key: when non-empty
// it rides as the Idempotency-Key header, so replaying the same stream
// under the same key makes already-applied frames no-ops on the server.
func OpenKeyedStream(ctx context.Context, client *http.Client, baseURL, key string) (*Stream, error) {
	if client == nil {
		client = http.DefaultClient
	}
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimSuffix(baseURL, "/")+"/v1/stream", pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", store.StreamContentType)
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	s := &Stream{pw: pw, resp: make(chan streamResult, 1)}
	go func() {
		resp, err := client.Do(req)
		if err != nil {
			// Unblock a Send stuck writing into the abandoned body.
			pr.CloseWithError(err)
			s.resp <- streamResult{err: err}
			return
		}
		defer resp.Body.Close()
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if resp.StatusCode != http.StatusOK {
			rejection := parseStreamError(resp.StatusCode, body)
			pr.CloseWithError(rejection)
			s.resp <- streamResult{err: rejection}
			return
		}
		if rerr != nil {
			s.resp <- streamResult{err: rerr}
			return
		}
		var sum StreamSummary
		if err := json.Unmarshal(body, &sum); err != nil {
			s.resp <- streamResult{err: fmt.Errorf("stream summary: %w", err)}
			return
		}
		s.resp <- streamResult{summary: sum}
	}()
	// The magic rides ahead of the first frame in one write.
	s.buf = store.AppendStreamHeader(s.buf[:0])
	return s, nil
}

// Send frames one update batch and writes it to the connection. An error
// usually means the server rejected the stream; Close returns the cause.
func (s *Stream) Send(batch []engine.Update) error {
	s.buf = store.AppendFrame(s.buf, batch)
	_, err := s.pw.Write(s.buf)
	s.buf = s.buf[:0]
	return err
}

// Close ends the stream cleanly and returns the server's summary.
func (s *Stream) Close() (StreamSummary, error) {
	s.pw.Close()
	r := <-s.resp
	return r.summary, r.err
}

// Event is one decoded SSE event from /v1/subscribe.
type Event struct {
	// Type is the SSE event name: "estimate" or "drain".
	Type string
	// ID is the raw SSE id line — the engine version for estimate events.
	ID string
	// Data is the event's data payload (JSON for estimate events).
	Data []byte
}

// Push is a decoded estimate event: the engine version the results
// reflect plus the raw per-query result objects, exactly as POST
// /v1/query would return them.
type Push struct {
	Version uint64            `json:"version"`
	Results []json.RawMessage `json:"results"`
	// Degraded is the raw degraded block when the push was evaluated
	// from a view missing cluster nodes (absent otherwise).
	Degraded json.RawMessage `json:"degraded,omitempty"`
}

// Subscription is one open /v1/subscribe connection.
type Subscription struct {
	resp *http.Response
	sc   *bufio.Scanner
}

// Subscribe opens GET /v1/subscribe with the given raw query string
// (e.g. "func=rg&p=1&estimator=lstar" or "queries=[...]"). A non-200
// response is returned as an error carrying the server's message.
func Subscribe(ctx context.Context, client *http.Client, baseURL, rawQuery string) (*Subscription, error) {
	if client == nil {
		client = http.DefaultClient
	}
	url := strings.TrimSuffix(baseURL, "/") + "/v1/subscribe"
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return &Subscription{resp: resp, sc: sc}, nil
}

// Next blocks until the next event arrives (heartbeat comments are
// skipped) and returns it. io.EOF means the server closed the stream.
func (s *Subscription) Next() (Event, error) {
	var ev Event
	haveData := false
	for s.sc.Scan() {
		line := s.sc.Bytes()
		switch {
		case len(line) == 0:
			if ev.Type != "" || haveData {
				return ev, nil
			}
			// Blank after a comment-only block: keep waiting.
		case line[0] == ':':
			// Heartbeat comment.
		case bytes.HasPrefix(line, []byte("event: ")):
			ev.Type = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("id: ")):
			ev.ID = string(line[len("id: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			ev.Data = append(ev.Data, line[len("data: "):]...)
			haveData = true
		}
	}
	if err := s.sc.Err(); err != nil {
		return Event{}, err
	}
	return Event{}, io.EOF
}

// NextPush reads events until the next "estimate" event and decodes it.
func (s *Subscription) NextPush() (Push, error) {
	for {
		ev, err := s.Next()
		if err != nil {
			return Push{}, err
		}
		if ev.Type != "estimate" {
			continue
		}
		var p Push
		if err := json.Unmarshal(ev.Data, &p); err != nil {
			return Push{}, fmt.Errorf("decoding push %q: %w", ev.Data, err)
		}
		if ev.ID != "" {
			if id, err := strconv.ParseUint(ev.ID, 10, 64); err == nil && id != p.Version {
				return Push{}, fmt.Errorf("push id %d disagrees with payload version %d", id, p.Version)
			}
		}
		return p, nil
	}
}

// Close tears down the subscription connection.
func (s *Subscription) Close() error { return s.resp.Body.Close() }
