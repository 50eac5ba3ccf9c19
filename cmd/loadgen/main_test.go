package main

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/internal/server"
)

// daemon serves a fresh in-process engine with the given instance count.
func daemon(t *testing.T, instances int) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng, err := engine.New(engine.Config{Instances: instances, K: 64, Shards: 8, Hash: sampling.NewSeedHash(1)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewWith(eng, server.Config{SubscribeDebounce: 10 * time.Millisecond}))
	t.Cleanup(ts.Close)
	return ts, eng
}

// runExact runs loadgen and requires every update to land exactly once.
func runExact(t *testing.T, eng *engine.Engine, o options) {
	t.Helper()
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Ingests; got != uint64(o.updates) {
		t.Fatalf("engine ingested %d, want %d", got, o.updates)
	}
}

func TestRunVerifiesAgainstInProcessServer(t *testing.T) {
	ts, eng := daemon(t, 2)
	runExact(t, eng, options{addr: ts.URL, updates: 5000, batch: 256, streams: 2, subscribers: 3})
}

// TestRunOneInstanceDaemon pins that updates spread over the instance
// count the daemon reports, not a client-side guess: instance 1 would be
// a 400 here.
func TestRunOneInstanceDaemon(t *testing.T) {
	ts, eng := daemon(t, 1)
	runExact(t, eng, options{addr: ts.URL, updates: 2000, batch: 128, streams: 2, subscribers: 2})
}

// TestRunThroughInjectedFaults drives the whole run through client-side
// resets and dropped responses: subscribe, stats, query and every stream
// retry, and the idempotency-keyed replays keep the ingest exact. The
// draw sequence is fixed by the seed: seed 3 resets two of the first four
// requests and drops a third's response, whatever order the goroutines
// issue them in (seed 1 faults none of the first seven).
func TestRunThroughInjectedFaults(t *testing.T) {
	ts, eng := daemon(t, 2)
	runExact(t, eng, options{
		addr: ts.URL, updates: 3000, batch: 64, streams: 3, subscribers: 2,
		faultProfile: "reset=0.2,drop-response=0.2,seed=3",
	})
}

func TestRunRejectsBadOptions(t *testing.T) {
	if err := run(options{updates: -1, batch: 1, streams: 1, subscribers: 1}); err == nil {
		t.Fatal("negative -updates accepted")
	}
	if err := run(options{updates: 1, batch: 0, streams: 1, subscribers: 1}); err == nil {
		t.Fatal("zero -batch accepted")
	}
	if err := run(options{updates: 1, batch: 1, streams: 1, subscribers: 0}); err == nil {
		t.Fatal("zero -subscribers accepted")
	}
	if err := run(options{updates: 1, batch: 1, streams: 1, subscribers: 1, faultProfile: "bogus"}); err == nil {
		t.Fatal("malformed -fault-profile accepted")
	}
}
