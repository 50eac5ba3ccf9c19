package streamclient_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/streamclient"
)

func testServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	return testServerWith(t, server.Config{SubscribeDebounce: 10 * time.Millisecond})
}

func testServerWith(t *testing.T, cfg server.Config) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng, err := engine.New(engine.Config{Instances: 2, K: 16, Shards: 4, Hash: sampling.NewSeedHash(1)})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewWith(eng, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, eng
}

func batch(n, base int) []engine.Update {
	b := make([]engine.Update, n)
	for i := range b {
		b[i] = engine.Update{Instance: i % 2, Key: uint64(base + i), Weight: float64(i%7) + 0.5}
	}
	return b
}

func TestStreamRoundTrip(t *testing.T) {
	ts, eng := testServer(t)
	st, err := streamclient.OpenStream(context.Background(), ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 5; i++ {
		b := batch(32, i*100)
		if err := st.Send(b); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		total += len(b)
	}
	sum, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Frames != 5 || sum.Updates != total || sum.Draining {
		t.Fatalf("summary %+v, want 5 frames / %d updates", sum, total)
	}
	if got := eng.Stats().Ingests; got != uint64(total) {
		t.Fatalf("engine ingested %d, want %d", got, total)
	}
}

func TestStreamServerRejectsBadUpdate(t *testing.T) {
	ts, _ := testServer(t)
	st, err := streamclient.OpenStream(context.Background(), ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Instance 9 is outside [0, 2): the server must abort the stream.
	_ = st.Send([]engine.Update{{Instance: 9, Key: 1, Weight: 1}})
	// Later sends may fail once the server closes its end; Close must
	// surface the 400.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := st.Send(batch(8, 0)); err != nil {
			break
		}
	}
	if _, err := st.Close(); err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("Close error %v, want status 400", err)
	}
}

func TestSubscribePushesOnStreamIngest(t *testing.T) {
	ts, _ := testServer(t)
	ctx := context.Background()
	sub, err := streamclient.Subscribe(ctx, ts.Client(), ts.URL, "func=rg&p=1&estimator=lstar")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	initial, err := sub.NextPush()
	if err != nil {
		t.Fatal(err)
	}
	if len(initial.Results) != 1 {
		t.Fatalf("initial push has %d results", len(initial.Results))
	}

	st, err := streamclient.OpenStream(ctx, ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send(batch(64, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Close(); err != nil {
		t.Fatal(err)
	}

	push, err := sub.NextPush()
	if err != nil {
		t.Fatal(err)
	}
	if push.Version <= initial.Version && initial.Version != 0 {
		t.Fatalf("pushed version %d did not advance past %d", push.Version, initial.Version)
	}

	// The pushed estimate must equal what POST /v1/query answers for the
	// same spec at the same version.
	resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"queries":[{"statistic":"sum","func":"rg","p":1,"estimator":"lstar"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr struct {
		Version uint64            `json:"version"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Version != push.Version {
		t.Fatalf("query version %d != push version %d (engine mutated between?)", qr.Version, push.Version)
	}
	var a, b map[string]any
	if err := json.Unmarshal(push.Results[0], &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(qr.Results[0], &b); err != nil {
		t.Fatal(err)
	}
	if a["estimate"] != b["estimate"] {
		t.Fatalf("pushed estimate %v != queried estimate %v", a["estimate"], b["estimate"])
	}
}

func TestSubscribeRejectsBadQuery(t *testing.T) {
	ts, _ := testServer(t)
	if _, err := streamclient.Subscribe(context.Background(), ts.Client(), ts.URL, "estimator=bogus"); err == nil ||
		!strings.Contains(err.Error(), "status 400") {
		t.Fatalf("bad estimator: %v, want status 400", err)
	}
}

func TestSubscribeContextCancelCloses(t *testing.T) {
	ts, _ := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	sub, err := streamclient.Subscribe(ctx, ts.Client(), ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := sub.NextPush(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := sub.Next(); err == nil {
		t.Fatal("Next succeeded after cancel")
	}
}
