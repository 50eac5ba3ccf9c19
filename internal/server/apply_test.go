package server

// Tests for the one apply step (apply.go) as both write endpoints reach
// it, and for the bounded tables behind its gate and idempotency record.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// fullDisk is an engine.Journal that accepts `room` appends and then
// fails like a full disk.
type fullDisk struct{ room atomic.Int64 }

func (j *fullDisk) Append([]engine.Update) error {
	if j.room.Add(-1) < 0 {
		return errors.New("disk full")
	}
	return nil
}

// A failed write-ahead journal is the server's fault: both endpoints
// answer 500 "internal" (retryable), never the 400 a malformed update
// gets — and a stream still reports the progress before the failure.
func TestJournalFailureAnswers500(t *testing.T) {
	_, ts, eng := subTestServer(t, Config{})
	journal := &fullDisk{}
	eng.SetJournal(journal)

	decode := func(out []byte) errEnvelope {
		t.Helper()
		var env errEnvelope
		if err := json.Unmarshal(out, &env); err != nil {
			t.Fatalf("unparseable error body %s: %v", out, err)
		}
		return env
	}

	resp, out := postRawJSON(t, ts.URL+"/v1/ingest", ingestBody(3, 0))
	if env := decode(out); resp.StatusCode != http.StatusInternalServerError || env.Error.Code != "internal" ||
		env.Error.Message != "engine: journal: disk full" {
		t.Fatalf("/v1/ingest with a failing journal: %d %+v, want 500 internal", resp.StatusCode, env.Error)
	}

	// One frame fits (every frame is one journal record), then the disk is
	// full.
	journal.room.Store(1)
	resp, out = postStream(t, ts, streamBody(
		[]engine.Update{{Instance: 0, Key: 1, Weight: 2}},
		[]engine.Update{{Instance: 0, Key: 2, Weight: 2}},
	))
	if env := decode(out); resp.StatusCode != http.StatusInternalServerError || env.Error.Code != "internal" ||
		env.Error.Message != "frame 1: engine: journal: disk full (1 updates from 1 frames already applied)" {
		t.Fatalf("/v1/stream with a failing journal: %d %+v, want 500 internal with progress", resp.StatusCode, env.Error)
	}
	if got := eng.Stats().Ingests; got != 1 {
		t.Fatalf("engine ingested %d, want only the journaled frame (1)", got)
	}

	// Validation failures stay the request's fault on both endpoints.
	bad := []engine.Update{{Instance: 9, Key: 1, Weight: 1}}
	resp, out = postRawJSON(t, ts.URL+"/v1/ingest",
		map[string]any{"updates": []map[string]any{{"instance": 9, "id": 1, "weight": 1}}})
	if env := decode(out); resp.StatusCode != http.StatusBadRequest || env.Error.Code != "bad_request" {
		t.Fatalf("/v1/ingest with a bad instance: %d %+v, want 400 bad_request", resp.StatusCode, env.Error)
	}
	resp, out = postStream(t, ts, streamBody(bad))
	if env := decode(out); resp.StatusCode != http.StatusBadRequest || env.Error.Code != "bad_request" ||
		!strings.Contains(env.Error.Message, "0 frames already applied") {
		t.Fatalf("/v1/stream with a bad instance: %d %+v, want 400 bad_request with progress", resp.StatusCode, env.Error)
	}
}

// /v1/ingest runs the same apply step as a stream frame, so a JSON batch
// replayed under its Idempotency-Key is recognized and not re-applied.
func TestIngestReplayUnderIdempotencyKeyAppliesOnce(t *testing.T) {
	s, ts, eng := subTestServer(t, Config{})
	body, err := json.Marshal(ingestBody(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/ingest", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", "json-retry")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var sum map[string]int
		if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || sum["ingested"] != 4 {
			t.Fatalf("attempt %d: %d %v, want 200 with 4 ingested", attempt, resp.StatusCode, sum)
		}
	}
	if got := eng.Stats().Ingests; got != 4 {
		t.Fatalf("engine ingested %d, want the batch counted once (4)", got)
	}
	if d := s.wire.streamDeduped.Load(); d != 1 {
		t.Fatalf("deduped %d batches, want 1", d)
	}
	if f := s.wire.streamFrames.Load(); f != 0 {
		t.Fatalf("JSON batches moved the binary stream frame counter to %d", f)
	}
}

// The bounded-memory audit for the write path's two per-key tables:
// filled past their caps they never exceed them, and whoever was evicted
// simply starts fresh.
func TestWriteTablesStayBounded(t *testing.T) {
	t.Run("rate-limit buckets", func(t *testing.T) {
		g := newIngestGate(1, 10, 0)
		client := func(i int) string { return fmt.Sprintf("10.0.%d.%d", i/256, i%256) }
		// Client 0 drains its bucket, then enough newer clients arrive to
		// push it out.
		if ok, _ := g.admit(client(0), 10); !ok {
			t.Fatal("first full-burst charge refused")
		}
		if ok, _ := g.admit(client(0), 10); ok {
			t.Fatal("drained bucket admitted a second burst")
		}
		for i := 1; i <= maxClientBuckets+50; i++ {
			if ok, _ := g.admit(client(i), 1); !ok {
				t.Fatalf("fresh client %d refused", i)
			}
			if n := g.buckets.order.Len(); n > maxClientBuckets || n != len(g.buckets.byKey) {
				t.Fatalf("after %d clients the table holds %d entries (%d keys), cap %d",
					i+1, n, len(g.buckets.byKey), maxClientBuckets)
			}
		}
		if ok, _ := g.admit(client(0), 10); !ok {
			t.Fatal("evicted client did not start with a fresh full bucket")
		}
	})
	t.Run("idempotency records", func(t *testing.T) {
		s := newIdemStore()
		first := s.get("key-0")
		first.applied(0, 42)
		for i := 1; i <= maxIdemKeys+50; i++ {
			s.get(fmt.Sprintf("key-%d", i))
			if n := s.recs.order.Len(); n > maxIdemKeys || n != len(s.recs.byKey) {
				t.Fatalf("after %d keys the table holds %d entries (%d keys), cap %d",
					i+1, n, len(s.recs.byKey), maxIdemKeys)
			}
		}
		if again := s.get("key-0"); again == first || again.seen(0, 42) {
			t.Fatal("evicted key kept its applied-frame record")
		}
		// A recently used key survives the churn: eviction is LRU.
		recent := s.get("key-0")
		recent.applied(0, 7)
		for i := 0; i < maxIdemKeys-1; i++ {
			s.get(fmt.Sprintf("churn-%d", i))
		}
		if !s.get("key-0").seen(0, 7) {
			t.Fatal("most-recently-used key was evicted before older ones")
		}
	})
}

// Every way a write session ends closes it: refused at the door, cut
// short by its own input, failed by the engine or the journal, stopped
// by a drain. The open-session count is back to 0 after each, and the
// next one-shot stream still closes the push loop's debounce window at
// its end rather than on the timer (a drained server pushes no more).
func TestWriteSessionClosesOnEveryExit(t *testing.T) {
	const debounce = time.Second
	frame := func(key uint64, n int) []engine.Update {
		batch := make([]engine.Update, n)
		for i := range batch {
			batch[i] = engine.Update{Instance: i % 2, Key: key + uint64(i), Weight: 1}
		}
		return batch
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		status int
		exit   func(t *testing.T, s *Server, ts *httptest.Server) int
	}{
		{"in-flight 429", Config{IngestInflight: 1}, http.StatusTooManyRequests,
			func(t *testing.T, s *Server, ts *httptest.Server) int {
				holder, done := openStream(t, ts)
				if _, err := holder.Write(store.AppendStreamHeader(nil)); err != nil {
					t.Fatal(err)
				}
				for deadline := time.Now().Add(5 * time.Second); s.writes.Load() == 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the held stream never opened its session")
					}
				}
				resp, _ := postStream(t, ts, streamBody(frame(1, 1)))
				holder.Close()
				<-done
				return resp.StatusCode
			}},
		{"token-bucket 429", Config{IngestRate: 10, IngestBurst: 10}, http.StatusTooManyRequests,
			func(t *testing.T, _ *Server, ts *httptest.Server) int {
				resp, _ := postStream(t, ts, streamBody(frame(1, 10), frame(50, 10)))
				return resp.StatusCode
			}},
		{"torn frame 400", Config{}, http.StatusBadRequest,
			func(t *testing.T, _ *Server, ts *httptest.Server) int {
				resp, _ := postStream(t, ts, append(streamBody(frame(1, 1)), 0xde, 0xad, 0xbe))
				return resp.StatusCode
			}},
		{"rejected update 400", Config{}, http.StatusBadRequest,
			func(t *testing.T, _ *Server, ts *httptest.Server) int {
				resp, _ := postStream(t, ts, streamBody(frame(1, 1), []engine.Update{{Instance: 9, Key: 1, Weight: 1}}))
				return resp.StatusCode
			}},
		{"oversized body 413", Config{}, http.StatusRequestEntityTooLarge,
			func(t *testing.T, s *Server, _ *httptest.Server) int {
				body := io.MultiReader(strings.NewReader(`{"updates":[`), io.LimitReader(spaces{}, maxIngestBody+1))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", body))
				return rec.Code
			}},
		{"journal 500", Config{}, http.StatusInternalServerError,
			func(t *testing.T, s *Server, ts *httptest.Server) int {
				journal := &fullDisk{}
				journal.room.Store(1)
				s.eng.SetJournal(journal)
				resp, _ := postStream(t, ts, streamBody(frame(1, 1), frame(2, 1)))
				journal.room.Store(1 << 30) // room again for the stream that follows
				return resp.StatusCode
			}},
		{"drain", Config{}, http.StatusOK,
			func(t *testing.T, s *Server, ts *httptest.Server) int {
				s.Drain()
				resp, _ := postStream(t, ts, streamBody(frame(1, 1)))
				return resp.StatusCode
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tc.cfg.SubscribeDebounce = debounce
			s, ts, eng := subTestServer(t, tc.cfg)
			pushes := subscribeSSE(t, context.Background(), ts.URL, "").pushes()
			awaitPush(t, pushes, 0, 2*time.Second)
			if got := tc.exit(t, s, ts); got != tc.status {
				t.Fatalf("status %d, want %d", got, tc.status)
			}
			if n := s.writes.Load(); n != 0 {
				t.Fatalf("%d write sessions still open after the request ended", n)
			}
			if s.draining() {
				return
			}
			// Let the round the request's applied prefix started age one
			// debounce: only a session left open can then hold the next
			// push back to the timer.
			time.Sleep(debounce)
			start := time.Now()
			if resp, out := postStream(t, ts, streamBody(frame(100, 1))); resp.StatusCode != http.StatusOK {
				t.Fatalf("following stream status %d: %s", resp.StatusCode, out)
			}
			if d := awaitPush(t, pushes, eng.Version(), 2*time.Second).Sub(start); d >= debounce/2 {
				t.Fatalf("following stream pushed after %v: the window closed on its %v timer", d, debounce)
			}
		})
	}
}
