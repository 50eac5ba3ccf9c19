package server

import (
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Ingest backpressure: the write path (/v1/ingest + /v1/stream) can be
// bounded two ways, composable and both off by default —
//
//   - per-client token buckets (Config.IngestRate updates/sec with
//     Config.IngestBurst capacity), keyed by client IP;
//   - a global in-flight budget (Config.IngestInflight) on the server's
//     count of open write sessions: ingest requests and open streams.
//
// Exceeding either answers a structured 429 with a Retry-After header
// and a retry_after_seconds field in the error envelope; a mid-stream
// rejection additionally reports applied_frames/applied_updates, like
// every failed stream (apply.go), so clients resume instead of guessing.
// internal/streamclient's Pump honors all of it.

// maxClientBuckets bounds the per-client bucket table; beyond it the
// least-recently-charged bucket is evicted (a returning client starts
// with a full bucket again — backpressure, not accounting).
const maxClientBuckets = 4096

// rateLimitError carries the 429 contract through the route() error
// path: the retry hint.
type rateLimitError struct {
	error
	retryAfter time.Duration
}

// bucket is one client's token bucket (updates are the token unit).
type bucket struct {
	tokens float64
	last   time.Time
}

// ingestGate enforces the backpressure contract. A nil *ingestGate is
// inert (both limits off).
type ingestGate struct {
	rate        float64 // updates/sec per client; 0 = unlimited
	burst       float64
	maxInflight int64 // 0 = unlimited

	mu      sync.Mutex
	buckets *lruTable[*bucket]

	rateLimited      atomic.Uint64
	inflightRejected atomic.Uint64
}

func newIngestGate(rate, burst float64, inflight int) *ingestGate {
	if rate <= 0 && inflight <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = math.Max(rate, 1)
	}
	return &ingestGate{
		rate:        rate,
		burst:       burst,
		maxInflight: int64(inflight),
		buckets:     newLRUTable[*bucket](maxClientBuckets),
	}
}

// admitSession reports whether open write sessions, the one asking
// included, fit the in-flight budget; a refusal is counted.
func (g *ingestGate) admitSession(open int64) bool {
	if g == nil || g.maxInflight <= 0 || open <= g.maxInflight {
		return true
	}
	g.inflightRejected.Add(1)
	return false
}

// admit charges n updates against client's bucket. A batch larger than
// the burst is admitted whenever the bucket is full (charging the whole
// bucket) — the gate paces throughput, it must not deadlock a legal
// batch size. On refusal it returns how long until the charge would
// clear.
func (g *ingestGate) admit(client string, n int) (ok bool, retryAfter time.Duration) {
	if g == nil || g.rate <= 0 {
		return true, 0
	}
	need := math.Min(float64(n), g.burst)
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets.touch(client, func() *bucket { return &bucket{tokens: g.burst, last: now} })
	b.tokens = math.Min(g.burst, b.tokens+now.Sub(b.last).Seconds()*g.rate)
	b.last = now
	if b.tokens >= need {
		b.tokens -= need
		return true, 0
	}
	g.rateLimited.Add(1)
	return false, time.Duration((need - b.tokens) / g.rate * float64(time.Second))
}

// clientKey identifies the requesting client for per-client buckets:
// the IP of the peer (ports churn per connection).
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// setRetryHeaders mirrors a rateLimitError onto the response: the
// Retry-After header (whole seconds, at least 1) next to the precise
// retry_after_seconds JSON field.
func setRetryHeaders(w http.ResponseWriter, rl *rateLimitError) {
	secs := int(math.Ceil(rl.retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}
