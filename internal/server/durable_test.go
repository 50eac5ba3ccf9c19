package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/internal/store"
)

func newDurableServer(t *testing.T, dir string) (*httptest.Server, *engine.Engine, *store.Persistence) {
	t.Helper()
	eng, err := engine.New(engine.Config{Instances: 2, K: 8, Shards: 4, Hash: sampling.NewSeedHash(7)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := store.Attach(eng, st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWith(eng, Config{Persist: p}))
	t.Cleanup(ts.Close)
	return ts, eng, p
}

func ingestSome(t *testing.T, url string) {
	t.Helper()
	resp, _ := postJSON(t, url+"/v1/ingest", map[string]any{
		"updates": []map[string]any{
			{"instance": 0, "key": "alpha", "weight": 2.5},
			{"instance": 1, "key": "alpha", "weight": 1.0},
			{"instance": 0, "key": "beta", "weight": 4.0},
			{"instance": 1, "key": "gamma", "weight": 0.5},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
}

func TestCheckpointEndpoint(t *testing.T) {
	ts, _, _ := newDurableServer(t, t.TempDir())
	ingestSome(t, ts.URL)
	resp, body := postJSON(t, ts.URL+"/v1/checkpoint", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d: %v", resp.StatusCode, body)
	}
	cp, ok := body["checkpoint"].(map[string]any)
	if !ok {
		t.Fatalf("checkpoint body %v", body)
	}
	if cp["keys"].(float64) != 3 {
		t.Fatalf("checkpointed keys = %v, want 3", cp["keys"])
	}
	if _, ok := body["duration_ms"].(float64); !ok {
		t.Fatalf("missing duration_ms: %v", body)
	}
}

func TestCheckpointWithoutPersistenceIs503(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/checkpoint", map[string]any{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if errBody, ok := body["error"].(map[string]any); !ok || errBody["code"] != "unavailable" {
		t.Fatalf("error body %v", body)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	src, _ := newTestServer(t)
	ingestSome(t, src.URL)

	resp, err := http.Get(src.URL + "/v1/export")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("export content type %q", ct)
	}
	artifact, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.DecodeState(artifact)
	if err != nil {
		t.Fatalf("export is not a valid state artifact: %v", err)
	}
	if len(st.Keys) != 3 {
		t.Fatalf("exported %d keys, want 3", len(st.Keys))
	}

	// Import into a fresh server: its snapshot must equal the source's.
	dstEng, err := engine.New(engine.Config{Instances: 2, K: 8, Shards: 4, Hash: sampling.NewSeedHash(7)})
	if err != nil {
		t.Fatal(err)
	}
	dst := httptest.NewServer(New(dstEng))
	defer dst.Close()
	iresp, err := http.Post(dst.URL+"/v1/import", "application/octet-stream", bytes.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	ibody := decodeBody(t, iresp)
	if iresp.StatusCode != http.StatusOK {
		t.Fatalf("import status %d: %v", iresp.StatusCode, ibody)
	}
	if ibody["merged_keys"].(float64) != 3 {
		t.Fatalf("merged_keys = %v", ibody["merged_keys"])
	}

	// Bit-identical estimates: the same sum query answers the same.
	_, srcEst := queryOne(t, src.URL, map[string]any{"func": "max"})
	_, dstEst := queryOne(t, dst.URL, map[string]any{"func": "max"})
	if srcEst["estimate"] != dstEst["estimate"] {
		t.Fatalf("imported estimate %v differs from source %v", dstEst["estimate"], srcEst["estimate"])
	}
}

func TestImportRejectsGarbageAndMismatch(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/import", "application/octet-stream", strings.NewReader("not an artifact"))
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage import status %d: %v", resp.StatusCode, body)
	}

	// A valid artifact from an incompatible engine (different salt) must
	// be rejected by the seed fingerprint, not merged wrongly.
	other, err := engine.New(engine.Config{Instances: 2, K: 8, Shards: 4, Hash: sampling.NewSeedHash(99)})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Ingest(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	artifact := store.EncodeState(other.DumpState())
	resp, err = http.Post(ts.URL+"/v1/import", "application/octet-stream", bytes.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched-salt import status %d: %v", resp.StatusCode, body)
	}
}

func TestImportWithPersistenceCheckpoints(t *testing.T) {
	dir := t.TempDir()
	ts, eng, _ := newDurableServer(t, dir)
	src, err := engine.New(engine.Config{Instances: 2, K: 8, Shards: 4, Hash: sampling.NewSeedHash(7)})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Ingest(0, 42, 3.5); err != nil {
		t.Fatal(err)
	}
	artifact := store.EncodeState(src.DumpState())
	resp, err := http.Post(ts.URL+"/v1/import", "application/octet-stream", bytes.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	body := decodeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("import status %d: %v", resp.StatusCode, body)
	}
	if _, ok := body["checkpoint"].(map[string]any); !ok {
		t.Fatalf("import with persistence did not checkpoint: %v", body)
	}
	want := eng.Snapshot()

	// The imported state survives a crash (no clean close) because the
	// import checkpointed: recover from disk and compare.
	r, err := engine.New(engine.Config{Instances: 2, K: 8, Shards: 4, Hash: sampling.NewSeedHash(7)})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := store.Attach(r, st2)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if !reflect.DeepEqual(r.Snapshot(), want) {
		t.Fatal("imported state did not survive crash recovery")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := newDurableServer(t, t.TempDir())
	ingestSome(t, ts.URL)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"monest_engine_keys 3",
		"monest_engine_ingests_total 4",
		"# TYPE monest_engine_ingests_total counter",
		`monest_http_requests_total{endpoint="POST /v1/ingest"} 1`,
		"monest_uptime_seconds",
		"monest_http_latency_seconds_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Unknown query params are a structured 400, like every endpoint.
	resp2, err := http.Get(ts.URL + "/metrics?bogus=1")
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp2); resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("metrics with unknown param: %d %v", resp2.StatusCode, body)
	}
}

func TestDurableIngestSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	ts, eng, _ := newDurableServer(t, dir)
	ingestSome(t, ts.URL)
	want := eng.Snapshot()
	ts.Close() // crash: no checkpoint, no store close — the WAL is all there is

	r, err := engine.New(engine.Config{Instances: 2, K: 8, Shards: 4, Hash: sampling.NewSeedHash(7)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, stats, err := store.Attach(r, st)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if stats.Updates != 4 {
		t.Fatalf("replayed %d updates, want 4", stats.Updates)
	}
	if !reflect.DeepEqual(r.Snapshot(), want) {
		t.Fatal("HTTP-ingested updates did not survive crash recovery")
	}
}
