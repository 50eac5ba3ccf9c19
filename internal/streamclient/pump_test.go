package streamclient_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/streamclient"
)

// frames is a replayable Pump source: n updates in frames of size.
func frames(n, size int) func(int) ([]engine.Update, bool) {
	return func(i int) ([]engine.Update, bool) {
		lo := i * size
		if lo >= n {
			return nil, false
		}
		return batch(min(size, n-lo), lo), true
	}
}

// serverCounters reads the daemon-side retry evidence from /v1/stats.
type serverCounters struct {
	Wire struct {
		StreamFramesDeduped uint64 `json:"stream_frames_deduped"`
	} `json:"wire"`
	IngestLimits struct {
		RateLimitedTotal uint64 `json:"rate_limited_total"`
	} `json:"ingest_limits"`
}

func counters(t *testing.T, ts *httptest.Server) serverCounters {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var c serverCounters
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPumpRidesOutRateLimit streams four bursts' worth of updates into a
// rate-limited server: Pump waits out each 429 and replays under its key,
// and every update is applied exactly once.
func TestPumpRidesOutRateLimit(t *testing.T) {
	ts, eng := testServerWith(t, server.Config{IngestRate: 2000, IngestBurst: 500})
	const n = 2000
	if err := streamclient.Pump(context.Background(), ts.Client(), ts.URL, "rate", frames(n, 100)); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Ingests; got != n {
		t.Fatalf("engine ingested %d, want %d", got, n)
	}
	if c := counters(t, ts); c.IngestLimits.RateLimitedTotal == 0 {
		t.Fatalf("server counted no 429s: %+v", c)
	}
}

// TestPumpReplaysDroppedResponse loses the response to a fully applied
// stream: Pump replays it under the same key, and the server recognizes
// every frame as already applied instead of counting it twice.
func TestPumpReplaysDroppedResponse(t *testing.T) {
	ts, eng := testServer(t)
	ft := fault.NewTransport(fault.Profile{}, ts.Client().Transport)
	ft.DropNextResponses(1)
	const n, size = 1000, 100
	if err := streamclient.Pump(context.Background(), &http.Client{Transport: ft}, ts.URL, "drop", frames(n, size)); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Ingests; got != n {
		t.Fatalf("engine ingested %d, want %d", got, n)
	}
	if got := counters(t, ts).Wire.StreamFramesDeduped; got != n/size {
		t.Fatalf("server deduped %d frames, want %d (the whole replay)", got, n/size)
	}
	if got := ft.Stats().Dropped; got != 1 {
		t.Fatalf("transport dropped %d responses, want 1", got)
	}
}
