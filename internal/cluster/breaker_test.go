package cluster

import (
	"context"
	"testing"
	"time"
)

func TestBreakerStateMachine(t *testing.T) {
	start := time.Unix(1000, 0)
	b := newBreaker(3, 100*time.Millisecond)
	allowed := func(at time.Time) bool { ok, _ := b.allow(at); return ok }

	// Closed: everything flows; sub-threshold failures stay closed.
	for i := 0; i < 2; i++ {
		if !allowed(start) {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.failure(start)
	}
	if b.current() != breakerClosed {
		t.Fatalf("state after 2/3 failures = %v, want closed", b.current())
	}

	// Third consecutive failure opens; within cooldown everything
	// short-circuits.
	allowed(start)
	b.failure(start)
	if b.current() != breakerOpen || b.opens.Load() != 1 {
		t.Fatalf("state after 3 failures = %v (opens %d), want open/1", b.current(), b.opens.Load())
	}
	for i := 0; i < 4; i++ {
		if allowed(start.Add(50 * time.Millisecond)) {
			t.Fatal("open breaker let a request through inside the cooldown")
		}
	}
	if b.shortCircuits.Load() != 4 {
		t.Fatalf("short circuits = %d, want 4", b.shortCircuits.Load())
	}

	// Past the cooldown exactly ONE half-open probe goes out; concurrent
	// requests keep short-circuiting until it reports.
	probeAt := start.Add(150 * time.Millisecond)
	if ok, probe := b.allow(probeAt); !ok || !probe {
		t.Fatalf("cooldown elapsed: allow = %v, probe = %v; want one probe", ok, probe)
	}
	if allowed(probeAt) {
		t.Fatal("two concurrent half-open probes")
	}

	// Probe failure re-opens for another full cooldown.
	b.failure(probeAt)
	if b.current() != breakerOpen || b.opens.Load() != 2 {
		t.Fatalf("state after failed probe = %v (opens %d), want open/2", b.current(), b.opens.Load())
	}
	if allowed(probeAt.Add(50 * time.Millisecond)) {
		t.Fatal("re-opened breaker let a request through inside the new cooldown")
	}

	// Next probe succeeds: fully closed, failure count reset (three new
	// failures needed to open again).
	probe2 := probeAt.Add(150 * time.Millisecond)
	if !allowed(probe2) {
		t.Fatal("second probe refused")
	}
	b.success()
	if b.current() != breakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.current())
	}
	allowed(probe2)
	b.failure(probe2)
	allowed(probe2)
	b.failure(probe2)
	if b.current() != breakerClosed {
		t.Fatal("failure count was not reset by the successful probe")
	}
}

func TestBackoffDelayBounds(t *testing.T) {
	j := &jitterSource{}
	j.state.Store(42)
	base, max := 25*time.Millisecond, time.Second
	for attempt := 0; attempt < 12; attempt++ {
		cap := base << attempt
		if attempt > 10 || cap > max || cap <= 0 {
			cap = max
		}
		for i := 0; i < 100; i++ {
			d := backoffDelay(j, base, max, attempt)
			if d < 0 || d >= cap {
				t.Fatalf("attempt %d: delay %v outside [0, %v)", attempt, d, cap)
			}
		}
	}
	if d := backoffDelay(j, 0, 0, 3); d != 0 {
		t.Fatalf("zero base/max delay = %v, want 0", d)
	}
}

func TestBackoffDelayJitterSpreads(t *testing.T) {
	// Full jitter exists to decorrelate retriers: distinct jitter streams
	// seeded like the coordinator seeds per-node sources must not produce
	// identical delay sequences.
	a, b := &jitterSource{}, &jitterSource{}
	a.state.Store(7)
	b.state.Store(7 + 0x9e3779b97f4a7c15)
	same := 0
	for i := 0; i < 50; i++ {
		if backoffDelay(a, 25*time.Millisecond, time.Second, 4) ==
			backoffDelay(b, 25*time.Millisecond, time.Second, 4) {
			same++
		}
	}
	if same == 50 {
		t.Fatal("two differently-seeded jitter streams produced identical delays")
	}
}

// TestRetryingReleasesAbandonedProbe: a caller that gives up during the
// half-open probe records no verdict, but hands the probe back, so the
// next request probes instead of short-circuiting for good.
func TestRetryingReleasesAbandonedProbe(t *testing.T) {
	n := &nodeClient{addr: "http://node", timeout: time.Second,
		br: newBreaker(1, 10*time.Millisecond), jitter: &jitterSource{}}
	n.br.failure(time.Now())
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	err := n.retrying(ctx, func(ctx context.Context, probe bool) error {
		if !probe {
			t.Error("the attempt past the cooldown is not the probe")
		}
		cancel()
		return &NodeError{Addr: n.addr, Err: ctx.Err()}
	})
	if err == nil {
		t.Fatal("abandoned probe reported success")
	}
	if ok, probe := n.br.allow(time.Now()); !ok || !probe {
		t.Fatalf("after an abandoned probe: allow = %v, probe = %v; want the next probe", ok, probe)
	}
}
