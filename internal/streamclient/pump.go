package streamclient

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/engine"
)

// maxRetries bounds Pump's replays of one stream.
const maxRetries = 50

// Pump drives one logical update stream to completion under
// backpressure: it opens /v1/stream with an Idempotency-Key, feeds it
// frames from next, and when the server rejects a frame with the
// backpressure 429 it waits out the Retry-After hint and replays the
// whole stream under the same key — the server skips every frame it
// already applied (position + digest match), so the replay costs no
// re-application and the node's counters stay exact.
//
// next(i) returns frame i and whether it exists, and MUST be replayable
// (same i, same updates: server-side dedup matches on content digests).
// Two failure classes replay, up to maxRetries times: the backpressure
// 429 (waiting out Retry-After) and transport-level failures such as a
// connection reset or a response lost in flight (capped exponential
// backoff; an answer without the server's error envelope counts as one)
// — the idempotency key makes both exact. Any other structured rejection
// (400 torn frame, 503 draining) returns immediately.
func Pump(ctx context.Context, client *http.Client, baseURL, key string, next func(frame int) ([]engine.Update, bool)) error {
	for attempt := 0; ; attempt++ {
		s, err := OpenKeyedStream(ctx, client, baseURL, key)
		if err != nil {
			return err
		}
		for i := 0; ; i++ {
			batch, ok := next(i)
			if !ok {
				break
			}
			if err := s.Send(batch); err != nil {
				break // the server closed the stream; Close has the cause
			}
		}
		_, err = s.Close()
		if err == nil {
			return nil
		}
		var delay time.Duration
		var se *StreamError
		switch {
		case errors.As(err, &se) && se.Code != "":
			if !se.RateLimited() {
				return err
			}
			delay = se.RetryAfter
			if delay <= 0 {
				delay = 100 * time.Millisecond
			}
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return err
		default:
			// Transport failure: the server may or may not have applied a
			// suffix of what we sent — exactly the ambiguity the key's
			// replay-and-skip resolves.
			delay = min(time.Second, 50*time.Millisecond<<min(attempt, 6))
		}
		if attempt >= maxRetries {
			return err
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
