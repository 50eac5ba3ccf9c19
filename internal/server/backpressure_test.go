package server

// Tests for the failure-domain serving surface: ingest backpressure
// (token buckets + in-flight budget, the structured 429 contract),
// stream idempotency replay, the /readyz readiness probe, and the
// degraded block every snapshot-backed response must carry when the
// cluster reporter labels the view partial.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/internal/store"
)

// postJSON posts a JSON body and returns status + decoded envelope.
func postRawJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

func ingestBody(n int, from int) map[string]any {
	ups := make([]map[string]any, n)
	for i := range ups {
		ups[i] = map[string]any{"instance": i % 2, "id": from + i, "weight": 1.5}
	}
	return map[string]any{"updates": ups}
}

// errEnvelope mirrors the structured error envelope's 429 fields.
type errEnvelope struct {
	Error struct {
		Code              string  `json:"code"`
		Message           string  `json:"message"`
		RetryAfterSeconds float64 `json:"retry_after_seconds"`
		AppliedFrames     *int    `json:"applied_frames"`
		AppliedUpdates    *int    `json:"applied_updates"`
	} `json:"error"`
}

func TestIngestRateLimit(t *testing.T) {
	_, ts, eng := subTestServer(t, Config{IngestRate: 10, IngestBurst: 20})

	resp, out := postRawJSON(t, ts.URL+"/v1/ingest", ingestBody(20, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("burst-sized batch refused: %d: %s", resp.StatusCode, out)
	}
	resp, out = postRawJSON(t, ts.URL+"/v1/ingest", ingestBody(20, 100))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget batch got %d, want 429: %s", resp.StatusCode, out)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds ≥ 1", ra)
	}
	var env errEnvelope
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatalf("unparseable 429 body %s: %v", out, err)
	}
	if env.Error.Code != "rate_limited" || env.Error.RetryAfterSeconds <= 0 {
		t.Fatalf("429 envelope = %+v, want code rate_limited with a positive retry hint", env.Error)
	}
	if env.Error.AppliedFrames != nil {
		t.Fatalf("/v1/ingest 429 carries stream progress fields: %+v", env.Error)
	}
	if got := eng.Stats().Ingests; got != 20 {
		t.Fatalf("engine ingested %d, want only the admitted batch (20)", got)
	}
}

// TestStreamRateLimitReportsProgress pins the mid-stream 429 contract:
// the refusal names the applied prefix so the client resumes instead of
// guessing, exactly like the torn-frame contract.
func TestStreamRateLimitReportsProgress(t *testing.T) {
	s, ts, eng := subTestServer(t, Config{IngestRate: 5, IngestBurst: 10})
	frame1 := make([]engine.Update, 10)
	frame2 := make([]engine.Update, 10)
	for i := range frame1 {
		frame1[i] = engine.Update{Instance: i % 2, Key: uint64(i), Weight: 2}
		frame2[i] = engine.Update{Instance: i % 2, Key: uint64(50 + i), Weight: 2}
	}
	resp, out := postStream(t, ts, streamBody(frame1, frame2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second frame got %d, want 429: %s", resp.StatusCode, out)
	}
	var env errEnvelope
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.AppliedFrames == nil || *env.Error.AppliedFrames != 1 ||
		env.Error.AppliedUpdates == nil || *env.Error.AppliedUpdates != 10 {
		t.Fatalf("mid-stream 429 progress = %+v, want 1 frame / 10 updates applied", env.Error)
	}
	if env.Error.RetryAfterSeconds <= 0 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("mid-stream 429 without retry hint: %+v", env.Error)
	}
	if got := eng.Stats().Ingests; got != 10 {
		t.Fatalf("engine ingested %d, want the admitted first frame kept (10)", got)
	}
	if f := s.wire.streamFrames.Load(); f != 1 {
		t.Fatalf("wire counted %d frames, want 1", f)
	}
}

// TestIngestInflightBudget holds the single in-flight slot open with a
// pipe-fed stream and verifies concurrent write work answers 429 until
// the slot frees.
func TestIngestInflightBudget(t *testing.T) {
	_, ts, _ := subTestServer(t, Config{IngestInflight: 1})

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", store.StreamContentType)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	if _, err := pw.Write(store.AppendStreamHeader(nil)); err != nil {
		t.Fatal(err)
	}

	// The open stream owns the only slot; both write endpoints refuse.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, out := postRawJSON(t, ts.URL+"/v1/ingest", ingestBody(1, 0))
		if resp.StatusCode == http.StatusTooManyRequests {
			var env errEnvelope
			if err := json.Unmarshal(out, &env); err != nil || env.Error.Code != "rate_limited" {
				t.Fatalf("in-flight 429 envelope %s: %v", out, err)
			}
			break
		}
		// The stream goroutine may not have claimed the slot yet.
		if time.Now().After(deadline) {
			t.Fatalf("ingest never hit the in-flight budget (last status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, out := postStream(t, ts, streamBody([]engine.Update{{Instance: 0, Key: 9, Weight: 1}}))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second stream got %d, want 429: %s", resp.StatusCode, out)
	}

	// Slot freed: writes flow again.
	pw.Close()
	wg.Wait()
	resp, out = postRawJSON(t, ts.URL+"/v1/ingest", ingestBody(1, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after slot freed got %d: %s", resp.StatusCode, out)
	}
}

func postStreamKeyed(t *testing.T, ts *httptest.Server, key string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", store.StreamContentType)
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

type streamSummary struct {
	Frames         int `json:"frames"`
	Updates        int `json:"updates"`
	SkippedFrames  int `json:"skipped_frames"`
	SkippedUpdates int `json:"skipped_updates"`
}

// TestStreamIdempotentReplay pins satellite (b): a replayed keyed stream
// is recognized frame by frame — engine ingests and wire counters count
// each logical frame exactly once — while a fresh key or fresh content
// under the same key applies normally.
func TestStreamIdempotentReplay(t *testing.T) {
	s, ts, eng := subTestServer(t, Config{})
	f1 := []engine.Update{{Instance: 0, Key: 1, Weight: 2}, {Instance: 1, Key: 2, Weight: 3}}
	f2 := []engine.Update{{Instance: 0, Key: 3, Weight: 4}}
	body := streamBody(f1, f2)

	resp, out := postStreamKeyed(t, ts, "retry-1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first pass: %d: %s", resp.StatusCode, out)
	}
	var sum streamSummary
	if err := json.Unmarshal(out, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Frames != 2 || sum.Updates != 3 || sum.SkippedFrames != 0 {
		t.Fatalf("first pass summary %+v, want 2 frames applied", sum)
	}

	// Replay, same key: everything skips, nothing re-applies.
	resp, out = postStreamKeyed(t, ts, "retry-1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: %d: %s", resp.StatusCode, out)
	}
	if err := json.Unmarshal(out, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Frames != 0 || sum.Updates != 0 || sum.SkippedFrames != 2 || sum.SkippedUpdates != 3 {
		t.Fatalf("replay summary %+v, want 2 frames / 3 updates skipped", sum)
	}
	if got := eng.Stats().Ingests; got != 3 {
		t.Fatalf("engine ingested %d after replay, want 3 (counted once)", got)
	}
	if f, u := s.wire.streamFrames.Load(), s.wire.streamUpdates.Load(); f != 2 || u != 3 {
		t.Fatalf("wire frames=%d updates=%d after replay, want 2/3", f, u)
	}
	if d := s.wire.streamDeduped.Load(); d != 2 {
		t.Fatalf("deduped counter = %d, want 2", d)
	}

	// Same key, extended stream: the old prefix skips, the new frame
	// applies — the resume-after-partial-apply shape.
	f3 := []engine.Update{{Instance: 1, Key: 4, Weight: 5}}
	resp, out = postStreamKeyed(t, ts, "retry-1", streamBody(f1, f2, f3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extended replay: %d: %s", resp.StatusCode, out)
	}
	if err := json.Unmarshal(out, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Frames != 1 || sum.Updates != 1 || sum.SkippedFrames != 2 {
		t.Fatalf("extended replay summary %+v, want 1 new frame applied over 2 skips", sum)
	}

	// Same position and key but different content (a colliding key):
	// digest mismatch, applies normally.
	alt := []engine.Update{{Instance: 0, Key: 99, Weight: 9}}
	resp, out = postStreamKeyed(t, ts, "retry-2", streamBody(alt))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh key: %d: %s", resp.StatusCode, out)
	}
	if err := json.Unmarshal(out, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Frames != 1 || sum.SkippedFrames != 0 {
		t.Fatalf("fresh key summary %+v, want a normal apply", sum)
	}
}

func TestReadyz(t *testing.T) {
	t.Run("plain node is ready once serving", func(t *testing.T) {
		_, ts, eng := subTestServer(t, Config{})
		if err := eng.Ingest(0, 1, 2.5); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("readyz = %d, want 200", resp.StatusCode)
		}
		// A node's probe never cuts its engine.
		if n := eng.Stats().Snapshot.Rebuilds; n != 0 {
			t.Fatalf("readyz rebuilt the snapshot %d times, want 0", n)
		}
	})
	t.Run("failing readiness check answers 503", func(t *testing.T) {
		src := new(toggleSource)
		_, ts, _ := subTestServer(t, Config{Snapshots: src})
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz with failing check = %d, want 503", resp.StatusCode)
		}
		if !bytes.Contains(body, []byte("floor unmet")) {
			t.Fatalf("readyz 503 does not surface the cause: %s", body)
		}
		// Liveness is NOT readiness: /healthz stays 200 throughout.
		resp, err = http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz = %d while unready, want 200", resp.StatusCode)
		}
		src.ready.Store(true)
		resp, err = http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("readyz after recovery = %d, want 200", resp.StatusCode)
		}
	})
	t.Run("draining answers 503", func(t *testing.T) {
		s, ts, _ := subTestServer(t, Config{})
		s.Drain()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
		}
	})
}

// toggleSource is a SnapshotSource whose Sync fails, as a coordinator
// below its read-policy floor does, until ready is set.
type toggleSource struct{ ready atomic.Bool }

func (t *toggleSource) Sync(context.Context) error {
	if !t.ready.Load() {
		return errors.New("read-policy floor unmet: 1/3 nodes reachable")
	}
	return nil
}

// degradedReporter is a ClusterReporter whose last round missed a node —
// the one place a server takes the degraded label from.
type degradedReporter struct{ deg *Degraded }

func (d degradedReporter) Stats() Stats        { return Stats{Policy: d.deg.Policy} }
func (d degradedReporter) Degraded() *Degraded { return d.deg }

// TestDegradedBlockOnResponses verifies every response shape names the
// missing node when the cluster reporter labels the view partial: the
// query endpoint, the SSE push, /v1/stats' cluster section and the
// /metrics gauge.
func TestDegradedBlockOnResponses(t *testing.T) {
	eng, err := engine.New(engine.Config{Instances: 2, K: 16, Shards: 4, Hash: sampling.NewSeedHash(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	deg := &Degraded{
		Policy:    "quorum=2",
		Reachable: 2,
		Total:     3,
		Missing: []MissingNode{{
			Node:  "http://node2:8080",
			Error: "connection refused",
		}},
	}
	s := NewWith(eng, Config{
		Cluster:           degradedReporter{deg},
		SubscribeDebounce: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(s)
	// Cleanup, not defer: the SSE connection's body-close cleanup (LIFO,
	// registered later) must run before the server shuts down.
	t.Cleanup(ts.Close)

	assertBlock := func(label string, got *Degraded) {
		t.Helper()
		if got == nil || len(got.Missing) != 1 || got.Missing[0].Node != "http://node2:8080" {
			t.Fatalf("%s: degraded block = %+v, want missing http://node2:8080", label, got)
		}
	}
	assertDegraded := func(label string, raw []byte) {
		t.Helper()
		var body struct {
			Degraded *Degraded `json:"degraded"`
		}
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatalf("%s: %v in %s", label, err, raw)
		}
		assertBlock(label, body.Degraded)
	}

	resp, out := postRawJSON(t, ts.URL+"/v1/query", map[string]any{
		"queries": []map[string]any{{"statistic": "sum"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d: %s", resp.StatusCode, out)
	}
	assertDegraded("query", out)

	c := subscribeSSE(t, context.Background(), ts.URL, "")
	for {
		typ, data := c.next(t)
		if typ != "estimate" {
			continue
		}
		assertDegraded("subscribe push", data)
		break
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Cluster struct {
			Degraded *Degraded `json:"degraded"`
		} `json:"cluster"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	assertBlock("stats cluster", stats.Cluster.Degraded)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(metrics, []byte("\nmonest_cluster_degraded 1\n")) {
		t.Fatalf("metrics lack monest_cluster_degraded 1:\n%s", metrics)
	}
}

// TestStrictSourceOmitsDegraded is the inverse: a plain engine-backed
// server must never emit the field.
func TestStrictSourceOmitsDegraded(t *testing.T) {
	_, ts, eng := subTestServer(t, Config{})
	if err := eng.Ingest(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	resp, out := postRawJSON(t, ts.URL+"/v1/query", map[string]any{
		"queries": []map[string]any{{"statistic": "sum"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d: %s", resp.StatusCode, out)
	}
	if bytes.Contains(out, []byte(`"degraded"`)) {
		t.Fatalf("single-node response carries a degraded block: %s", out)
	}
}
