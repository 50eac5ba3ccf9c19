package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

func streamBody(batches ...[]engine.Update) []byte {
	b := store.AppendStreamHeader(nil)
	for _, batch := range batches {
		b = store.AppendFrame(b, batch)
	}
	return b
}

func postStream(t testing.TB, ts *httptest.Server, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", store.StreamContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

// openStream starts a /v1/stream request whose body the test writes
// through the returned pipe; done closes once the response is read.
func openStream(t *testing.T, ts *httptest.Server) (body *io.PipeWriter, done <-chan struct{}) {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", store.StreamContentType)
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	t.Cleanup(func() { pw.Close(); <-ch })
	return pw, ch
}

func TestStreamAppliesFramesAndCounts(t *testing.T) {
	s, ts, eng := subTestServer(t, Config{})
	body := streamBody(
		[]engine.Update{{Instance: 0, Key: 1, Weight: 2}, {Instance: 1, Key: 1, Weight: 3}},
		[]engine.Update{{Instance: 0, Key: 2, Weight: 1}},
	)
	resp, out := postStream(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var sum struct {
		Frames   int  `json:"frames"`
		Updates  int  `json:"updates"`
		Draining bool `json:"draining"`
	}
	if err := json.Unmarshal(out, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Frames != 2 || sum.Updates != 3 || sum.Draining {
		t.Fatalf("summary %+v, want 2 frames / 3 updates", sum)
	}
	if got := eng.Stats().Ingests; got != 3 {
		t.Fatalf("engine ingested %d, want 3", got)
	}
	if f, u := s.wire.streamFrames.Load(), s.wire.streamUpdates.Load(); f != 2 || u != 3 {
		t.Fatalf("wire counters frames=%d updates=%d, want 2/3", f, u)
	}
}

func TestStreamRejectsWrongContentType(t *testing.T) {
	_, ts, _ := subTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(streamBody()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("status %d, want 415", resp.StatusCode)
	}
}

func TestStreamCorruptFrameAbortsKeepingApplied(t *testing.T) {
	_, ts, eng := subTestServer(t, Config{})
	body := streamBody([]engine.Update{{Instance: 0, Key: 7, Weight: 1}})
	body = append(body, 0xde, 0xad, 0xbe) // torn header after a good frame
	resp, out := postStream(t, ts, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), "1 frames already applied") {
		t.Fatalf("error does not report applied progress: %s", out)
	}
	if got := eng.Stats().Ingests; got != 1 {
		t.Fatalf("engine ingested %d, want the pre-corruption frame kept", got)
	}
}

func TestStreamDuringDrainStopsAtBoundary(t *testing.T) {
	s, ts, _ := subTestServer(t, Config{})
	s.Drain()
	resp, out := postStream(t, ts, streamBody([]engine.Update{{Instance: 0, Key: 1, Weight: 1}}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var sum struct {
		Frames   int  `json:"frames"`
		Draining bool `json:"draining"`
	}
	if err := json.Unmarshal(out, &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Draining || sum.Frames != 0 {
		t.Fatalf("summary %+v, want draining with 0 frames applied", sum)
	}
}

// The wire counters must surface through both observability endpoints.
func TestStatsAndMetricsExposeWireCounters(t *testing.T) {
	_, ts, _ := subTestServer(t, Config{})
	postStream(t, ts, streamBody([]engine.Update{{Instance: 0, Key: 1, Weight: 2}}))
	c := subscribeSSE(t, context.Background(), ts.URL, "")
	_ = c.nextPush(t)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Wire WireStats `json:"wire"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Wire.StreamFrames != 1 || stats.Wire.StreamUpdates != 1 {
		t.Fatalf("stats wire %+v, want 1 frame / 1 update", stats.Wire)
	}
	if stats.Wire.ActiveSubscribers != 1 || stats.Wire.PushedEvents == 0 {
		t.Fatalf("stats wire %+v, want 1 active subscriber with a push", stats.Wire)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"monest_stream_frames_total 1",
		"monest_stream_updates_total 1",
		"monest_subscribers_active 1",
		"monest_subscribe_pushed_events_total",
		"monest_subscribe_heartbeats_total",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// A second Drain call must be a no-op, and draining() must report state.
func TestDrainIdempotent(t *testing.T) {
	s, _, _ := subTestServer(t, Config{SubscribeDebounce: time.Millisecond})
	if s.draining() {
		t.Fatal("fresh server reports draining")
	}
	s.Drain()
	s.Drain()
	if !s.draining() {
		t.Fatal("drained server reports not draining")
	}
}
