package cluster

import (
	"math"
	"net/http"
	"time"
)

// Test-only knobs for the node client. Each writes unexported fields of
// a Coordinator built by New, so call it before any traffic and only on
// a coordinator without a Poll loop.

// NeverTrip is a breaker threshold no run of consecutive failures
// reaches: a breaker built with it stays closed.
const NeverTrip = math.MaxInt

// BreakerThreshold is the threshold New gives every node's breaker.
const BreakerThreshold = breakerThreshold

// SetNodeTransport sends every node request of c through rt.
func SetNodeTransport(c *Coordinator, rt http.RoundTripper) {
	hc := &http.Client{Transport: rt}
	for _, n := range c.nodes {
		n.hc = hc
	}
}

// SetBreakers gives every node of c a fresh breaker that opens after
// threshold consecutive Unavailable-class failures and short-circuits
// for cooldown.
func SetBreakers(c *Coordinator, threshold int, cooldown time.Duration) {
	for _, n := range c.nodes {
		n.br = newBreaker(threshold, cooldown)
	}
}
