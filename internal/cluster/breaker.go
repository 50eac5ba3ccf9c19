package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBreakerOpen is the error a node request short-circuits with while
// the node's circuit breaker is open: the node was not contacted at
// all. It surfaces as a NodeError with Status 0, so it is
// Unavailable-class — read policies and degraded writes treat a
// breaker-skipped node exactly like an unreachable one.
var ErrBreakerOpen = errors.New("circuit breaker open (node not contacted)")

// breakerState is the classic three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a per-node circuit breaker over Unavailable-class failures
// only (transport errors and 5xx — a 4xx proves the node is reachable
// and counts as contact success). threshold consecutive failures open
// it; while open, requests short-circuit without touching the wire;
// after cooldown a single half-open probe is let through — success
// closes the breaker, failure re-opens it for another cooldown. This is
// what makes a dead node cost ~0 per sync instead of timeout×retries.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    breakerState
	failures int
	openedAt time.Time
	probing  bool

	opens         atomic.Uint64
	shortCircuits atomic.Uint64
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a request may proceed now. A false return is a
// short-circuit: the caller must fail with ErrBreakerOpen and must NOT
// report an outcome back. probe marks the half-open probe — exactly one
// in flight at a time, which must end in success, failure or release.
func (b *breaker) allow(now time.Time) (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			b.shortCircuits.Add(1)
			return false, false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true, true
	default: // half-open
		if b.probing {
			b.shortCircuits.Add(1)
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// release hands back a half-open probe that ended without a verdict (its
// caller gave up): the breaker is open again with its old openedAt, so
// the next request probes at once instead of finding the slot taken.
func (b *breaker) release() {
	b.mu.Lock()
	if b.state == breakerHalfOpen && b.probing {
		b.state = breakerOpen
		b.probing = false
	}
	b.mu.Unlock()
}

// success records a contact that reached the node (2xx or even 4xx).
func (b *breaker) success() {
	b.mu.Lock()
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
}

// failure records an Unavailable-class outcome.
func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = now
		b.probing = false
		b.opens.Add(1)
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = now
			b.opens.Add(1)
		}
	}
}

// current returns the state for stats (open stays "open" until a probe
// actually goes out, even past the cooldown).
func (b *breaker) current() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// jitterSource is a lock-free splitmix64 stream for backoff jitter —
// deterministic per seed, safe for concurrent callers (each Add claims
// a distinct point in the sequence).
type jitterSource struct{ state atomic.Uint64 }

func (j *jitterSource) next() uint64 {
	z := j.state.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// backoff returns the full-jitter delay for a retry: uniform in
// [0, min(max, base<<attempt)). Full jitter decorrelates a fleet of
// retriers hammering a recovering node (the AWS architecture-blog
// result: same utilization, far fewer collision rounds).
func backoffDelay(j *jitterSource, base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if d <= 0 {
		return 0
	}
	return time.Duration(j.next() % uint64(d))
}
