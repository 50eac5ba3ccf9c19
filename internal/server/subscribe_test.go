package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sampling"
)

// subTestServer serves a fresh engine; each tune runs on the server
// before its listener starts, for the limits only tests shorten.
func subTestServer(t *testing.T, cfg Config, tune ...func(*Server)) (*Server, *httptest.Server, *engine.Engine) {
	t.Helper()
	eng, err := engine.New(engine.Config{Instances: 2, K: 16, Shards: 4, Hash: sampling.NewSeedHash(1)})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SubscribeDebounce == 0 {
		cfg.SubscribeDebounce = 5 * time.Millisecond
	}
	s := NewWith(eng, cfg)
	for _, f := range tune {
		f(s)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, eng
}

// sseConn is a minimal SSE reader over one /v1/subscribe response.
// lastID tracks the most recent `id:` line — what a real SSE client
// would replay as Last-Event-ID on reconnect.
type sseConn struct {
	resp   *http.Response
	sc     *bufio.Scanner
	lastID string
}

func subscribeSSE(t testing.TB, ctx context.Context, url, rawQuery string) *sseConn {
	t.Helper()
	full := url + "/v1/subscribe"
	if rawQuery != "" {
		full += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, full, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("subscribe status %d: %s", resp.StatusCode, body)
	}
	c := &sseConn{resp: resp, sc: bufio.NewScanner(resp.Body)}
	t.Cleanup(func() { resp.Body.Close() })
	return c
}

// next returns the next event's (type, data), skipping heartbeats.
func (c *sseConn) next(t *testing.T) (string, []byte) {
	t.Helper()
	typ, data, err := c.readEvent()
	if err != nil {
		t.Fatal(err)
	}
	return typ, data
}

// readEvent is next for callers off the test goroutine.
func (c *sseConn) readEvent() (string, []byte, error) {
	typ, data := "", []byte(nil)
	for c.sc.Scan() {
		line := c.sc.Bytes()
		switch {
		case len(line) == 0:
			if typ != "" {
				return typ, data, nil
			}
		case line[0] == ':':
		case bytes.HasPrefix(line, []byte("event: ")):
			typ = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("id: ")):
			c.lastID = string(line[len("id: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data, line[len("data: "):]...)
		}
	}
	return "", nil, fmt.Errorf("SSE stream ended: %v", c.sc.Err())
}

// pushes reads the connection's estimate events on a goroutine, so a
// test can wait for one with a deadline; the channel closes when the
// connection ends.
func (c *sseConn) pushes() <-chan pushPayload {
	// Room for every push a test leaves unread, so the reader never
	// blocks past the connection's close.
	ch := make(chan pushPayload, 64)
	go func() {
		defer close(ch)
		for {
			typ, data, err := c.readEvent()
			if err != nil {
				return
			}
			var p pushPayload
			if typ == "estimate" && json.Unmarshal(data, &p) == nil {
				ch <- p
			}
		}
	}()
	return ch
}

// awaitPush returns when the first push at or past version want arrived;
// it fails the test when none arrives within the deadline.
func awaitPush(t testing.TB, pushes <-chan pushPayload, want uint64, within time.Duration) time.Time {
	t.Helper()
	deadline := time.After(within)
	for {
		select {
		case p, ok := <-pushes:
			if !ok {
				t.Fatalf("SSE stream ended before a push at version %d", want)
			}
			if p.Version >= want {
				return time.Now()
			}
		case <-deadline:
			t.Fatalf("no push at version %d within %v", want, within)
		}
	}
}

type pushPayload struct {
	Version uint64        `json:"version"`
	Results []queryResult `json:"results"`
}

func (c *sseConn) nextPush(t *testing.T) pushPayload {
	t.Helper()
	for {
		typ, data := c.next(t)
		if typ != "estimate" {
			continue
		}
		var p pushPayload
		if err := json.Unmarshal(data, &p); err != nil {
			t.Fatalf("push %q: %v", data, err)
		}
		return p
	}
}

func ingestJSON(t *testing.T, url string, updates string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", "application/json", strings.NewReader(`{"updates":[`+updates+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
}

func TestSubscribeInitialPushThenVersionedPushes(t *testing.T) {
	_, ts, eng := subTestServer(t, Config{})
	ingestJSON(t, ts.URL, `{"instance":0,"key":"alpha","weight":2},{"instance":1,"key":"alpha","weight":1}`)

	c := subscribeSSE(t, context.Background(), ts.URL, "func=max&estimator=lstar")
	initial := c.nextPush(t)
	if initial.Version != eng.Version() {
		t.Fatalf("initial push version %d, engine %d", initial.Version, eng.Version())
	}
	if len(initial.Results) != 1 || initial.Results[0].Estimate == nil {
		t.Fatalf("initial push results %+v", initial.Results)
	}

	ingestJSON(t, ts.URL, `{"instance":0,"key":"beta","weight":5}`)
	push := c.nextPush(t)
	if push.Version <= initial.Version {
		t.Fatalf("push version %d did not advance past %d", push.Version, initial.Version)
	}
	if *push.Results[0].Estimate <= *initial.Results[0].Estimate {
		t.Fatalf("estimate did not grow: %g -> %g", *initial.Results[0].Estimate, *push.Results[0].Estimate)
	}
}

// A burst of writes inside one debounce window must yield ONE push whose
// version reflects the whole burst — not one event per write.
func TestSubscribeCoalescesWriteBursts(t *testing.T) {
	s, ts, eng := subTestServer(t, Config{SubscribeDebounce: 80 * time.Millisecond})
	c := subscribeSSE(t, context.Background(), ts.URL, "")
	_ = c.nextPush(t) // initial, version 0

	const burst = 20
	for i := 0; i < burst; i++ {
		ingestJSON(t, ts.URL, fmt.Sprintf(`{"instance":0,"key":"k%d","weight":%d}`, i, i+1))
	}
	push := c.nextPush(t)
	if push.Version != eng.Version() {
		// The debounce window may have closed mid-burst; at most one more
		// push finishes the burst.
		push = c.nextPush(t)
	}
	if push.Version != eng.Version() {
		t.Fatalf("burst push version %d, engine %d", push.Version, eng.Version())
	}
	if co := s.wire.coalesced.Load(); co == 0 {
		t.Fatal("no wakeups coalesced across a 20-write burst inside one debounce window")
	}
	if pushed := s.wire.pushed.Load(); pushed > 4 {
		t.Fatalf("%d events pushed for one burst; want coalescing to a handful", pushed)
	}
}

// pushBurst is a 4-frame write burst of two updates a frame, heavier
// than everything before it so every frame moves the version.
func pushBurst(round int) [][]engine.Update {
	frames := make([][]engine.Update, 4)
	for f := range frames {
		w := float64(round*len(frames) + f + 1)
		frames[f] = []engine.Update{{Instance: 0, Key: uint64(f), Weight: w}, {Instance: 1, Key: uint64(f), Weight: w}}
	}
	return frames
}

// The debounce window closes when the last write session ends. With a
// debounce far past the deadline, a finished /v1/stream burst and a
// finished /v1/ingest batch are each pushed at once; a session still
// open, or a writer that opens none, waits the window out.
func TestSubscribePushFollowsWriteSession(t *testing.T) {
	const dash = "func=rg&p=1&estimator=lstar"
	subscribed := func(t *testing.T, debounce time.Duration) (*httptest.Server, *engine.Engine, <-chan pushPayload) {
		_, ts, eng := subTestServer(t, Config{SubscribeDebounce: debounce})
		pushes := subscribeSSE(t, context.Background(), ts.URL, dash).pushes()
		awaitPush(t, pushes, 0, 2*time.Second) // the initial push
		return ts, eng, pushes
	}
	t.Run("stream ended", func(t *testing.T) {
		ts, eng, pushes := subscribed(t, 10*time.Second)
		if resp, out := postStream(t, ts, streamBody(pushBurst(0)...)); resp.StatusCode != http.StatusOK {
			t.Fatalf("stream status %d: %s", resp.StatusCode, out)
		}
		awaitPush(t, pushes, eng.Version(), 2*time.Second)
	})
	t.Run("ingest ended", func(t *testing.T) {
		ts, eng, pushes := subscribed(t, 10*time.Second)
		ingestJSON(t, ts.URL, `{"instance":0,"key":"a","weight":1},{"instance":1,"key":"a","weight":2}`)
		awaitPush(t, pushes, eng.Version(), 2*time.Second)
	})
	const debounce = 300 * time.Millisecond
	const early = 250 * time.Millisecond
	t.Run("stream open", func(t *testing.T) {
		ts, eng, pushes := subscribed(t, debounce)
		body, _ := openStream(t, ts)
		start := time.Now()
		if _, err := body.Write(streamBody(pushBurst(0)[0])); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(2 * time.Second); eng.Version() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the held stream's frame was never applied")
			}
		}
		// Another session ending does not close the window while the
		// held one is still open.
		ingestJSON(t, ts.URL, `{"instance":0,"key":"other","weight":1}`)
		if d := awaitPush(t, pushes, 1, 2*time.Second).Sub(start); d < early {
			t.Fatalf("pushed %v after a frame of a stream still open; want the %v window", d, debounce)
		}
	})
	t.Run("engine writer", func(t *testing.T) {
		_, eng, pushes := subscribed(t, debounce)
		start := time.Now()
		for _, f := range pushBurst(0) {
			if err := eng.IngestBatch(f); err != nil {
				t.Fatal(err)
			}
		}
		if d := awaitPush(t, pushes, eng.Version(), 2*time.Second).Sub(start); d < early {
			t.Fatalf("pushed %v after a burst with no write session; want the %v window", d, debounce)
		}
	})
}

// Closing the window early never spaces rounds closer than one debounce:
// back-to-back write sessions for 500ms at a 50ms debounce push at most
// 500/50 + 2 rounds.
func TestSubscribeEarlyCloseKeepsDebounceSpacing(t *testing.T) {
	const debounce, span = 50 * time.Millisecond, 500 * time.Millisecond
	s, ts, eng := subTestServer(t, Config{SubscribeDebounce: debounce})
	pushes := subscribeSSE(t, context.Background(), ts.URL, "").pushes()
	awaitPush(t, pushes, 0, 2*time.Second)
	initial := s.wire.pushed.Load()
	writes := 0
	for end := time.Now().Add(span); time.Now().Before(end); writes++ {
		ingestJSON(t, ts.URL, fmt.Sprintf(`{"instance":0,"key":"k%d","weight":1}`, writes))
	}
	awaitPush(t, pushes, eng.Version(), 2*time.Second)
	if rounds := s.wire.pushed.Load() - initial; rounds > uint64(span/debounce)+2 {
		t.Fatalf("%d rounds pushed for %d sessions over %v; want at most %d", rounds, writes, span, span/debounce+2)
	}
}

// A debounce that is not positive — unset or negative — is the 100ms
// default: every push round waits behind open writes and spaces itself.
func TestSubscribeDebounceDefault(t *testing.T) {
	eng, err := engine.New(engine.Config{Instances: 1, K: 4, Shards: 1, Hash: sampling.NewSeedHash(1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []time.Duration{0, -time.Second} {
		if got := NewWith(eng, Config{SubscribeDebounce: d}).broadcast.debounce; got != 100*time.Millisecond {
			t.Errorf("SubscribeDebounce %v: debounce = %v, want 100ms", d, got)
		}
	}
}

// A subscriber that never reads must not block ingest or the broadcaster;
// its oldest events are dropped and the last delivered event is the
// newest state.
func TestSubscribeSlowConsumerDropsOldest(t *testing.T) {
	s, _, eng := subTestServer(t, Config{SubscribeDebounce: time.Millisecond})
	sub := &subscriber{
		shareKey: "k",
		events:   make(chan pushEvent, subscriberBuffer),
	}
	sub.lastVersion.Store(subVersionNone)
	pl := s.newPlanner()
	q, err := pl.plan(querySpec{})
	if err != nil {
		t.Fatal(err)
	}
	sub.queries = []*plannedQuery{q}
	if err := s.broadcast.register(sub, 0); err != nil {
		t.Fatal(err)
	}
	defer s.broadcast.unregister(sub)

	// Overflow the buffer: each round delivers one event; nobody reads.
	rounds := subscriberBuffer + 5
	for i := 0; i < rounds; i++ {
		if err := eng.Ingest(0, uint64(i), float64(i+1)); err != nil {
			t.Fatal(err)
		}
		s.broadcast.round() // deterministic: drive rounds directly
	}
	if dropped := s.wire.dropped.Load(); dropped == 0 {
		t.Fatal("overflowing a never-reading subscriber dropped nothing")
	}
	// Drain the buffer: the newest queued event must carry the newest
	// version, and the queue length never exceeds its bound.
	var last pushEvent
	n := 0
	for {
		select {
		case last = <-sub.events:
			n++
			continue
		default:
		}
		break
	}
	if n > subscriberBuffer {
		t.Fatalf("queue held %d events, bound is %d", n, subscriberBuffer)
	}
	if last.version != eng.Version() {
		t.Fatalf("newest queued event has version %d, engine %d", last.version, eng.Version())
	}
}

func TestSubscribeClientDisconnectUnregisters(t *testing.T) {
	s, ts, _ := subTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	c := subscribeSSE(t, ctx, ts.URL, "")
	_ = c.nextPush(t)
	if n := s.wire.subsActive.Load(); n != 1 {
		t.Fatalf("active subscribers %d, want 1", n)
	}
	cancel() // client vanishes mid-connection
	deadline := time.Now().Add(5 * time.Second)
	for s.wire.subsActive.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never unregistered after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The broadcaster parks once the registry empties: a later mutation
	// must not panic or leak (nothing to push to).
	ingestJSON(t, ts.URL, `{"instance":0,"key":"after","weight":1}`)
}

func TestSubscribeDrainSendsFinalEventAndRefusesNew(t *testing.T) {
	s, ts, _ := subTestServer(t, Config{})
	c := subscribeSSE(t, context.Background(), ts.URL, "")
	_ = c.nextPush(t)
	s.Drain()
	for {
		typ, _ := c.next(t)
		if typ == "drain" {
			break
		}
	}
	resp, err := http.Get(ts.URL + "/v1/subscribe")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("subscribe while draining: %d, want 503", resp.StatusCode)
	}
}

func TestSubscribeLimitAndBadRequests(t *testing.T) {
	_, ts, _ := subTestServer(t, Config{}, func(s *Server) { s.maxSubscribers = 1 })
	c := subscribeSSE(t, context.Background(), ts.URL, "")
	_ = c.nextPush(t)

	get := func(raw string) (int, string) {
		resp, err := http.Get(ts.URL + "/v1/subscribe?" + raw)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("func=rg"); code != http.StatusServiceUnavailable {
		t.Fatalf("over-limit subscribe: %d %s, want 503", code, body)
	}
	cases := []string{
		"bogus=1",
		"estimator=nope",
		"statistic=unknown",
		"queries=[]",
		"queries=notjson",
		"queries=" + `[{"statistic":"sum"}]` + "&func=rg", // conflict
		"ids=12x",
	}
	// Free the slot so bad requests hit validation, not the limit.
	c.resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := get("bogus=1")
		if code == http.StatusBadRequest {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after close")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, raw := range cases {
		if code, body := get(raw); code != http.StatusBadRequest {
			t.Fatalf("%q: status %d %s, want 400", raw, code, body)
		}
	}
}

func TestSubscribeMultiQueryMatchesBatchedQuery(t *testing.T) {
	_, ts, _ := subTestServer(t, Config{})
	ingestJSON(t, ts.URL, `{"instance":0,"key":"a","weight":2},{"instance":1,"key":"a","weight":3},{"instance":0,"key":"b","weight":1}`)

	specs := `[{"statistic":"sum","func":"rg","p":1,"estimator":"lstar"},{"statistic":"jaccard"},{"statistic":"sum","func":"max","keys":["a"]}]`
	c := subscribeSSE(t, context.Background(), ts.URL, "queries="+strings.ReplaceAll(specs, "\"", "%22"))
	push := c.nextPush(t)
	if len(push.Results) != 3 {
		t.Fatalf("%d results, want 3", len(push.Results))
	}

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"queries":`+specs+`}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Version != push.Version {
		t.Fatalf("versions differ: query %d, push %d", qr.Version, push.Version)
	}
	for i := range qr.Results {
		if *qr.Results[i].Estimate != *push.Results[i].Estimate {
			t.Fatalf("result %d: query %g != push %g", i, *qr.Results[i].Estimate, *push.Results[i].Estimate)
		}
	}
}

func TestSubscribeHeartbeat(t *testing.T) {
	_, ts, _ := subTestServer(t, Config{}, func(s *Server) { s.heartbeat = 20 * time.Millisecond })
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/subscribe", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	deadline := time.Now().Add(5 * time.Second)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), ": ping") {
			return
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Fatal("no heartbeat comment observed")
}

// Concurrent subscribe/ingest/query churn; run under -race in CI.
func TestSubscribeConcurrentChurn(t *testing.T) {
	_, ts, _ := subTestServer(t, Config{SubscribeDebounce: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				ingestJSON(t, ts.URL, fmt.Sprintf(`{"instance":%d,"key":"w%d-%d","weight":%d}`, w%2, w, i, i+1))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Post(ts.URL+"/v1/query", "application/json",
					strings.NewReader(`{"queries":[{"statistic":"sum"}]}`))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sctx, scancel := context.WithTimeout(ctx, 2*time.Second)
			defer scancel()
			req, err := http.NewRequestWithContext(sctx, http.MethodGet, ts.URL+"/v1/subscribe", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			// Read a few events then vanish mid-stream.
			sc := bufio.NewScanner(resp.Body)
			for i := 0; i < 6 && sc.Scan(); i++ {
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
}

// resumeSSE is subscribeSSE with a Last-Event-ID header — the SSE
// reconnect protocol (the browser EventSource replays the last id: line
// it saw).
func resumeSSE(t *testing.T, ctx context.Context, url, rawQuery, lastEventID string) *sseConn {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/subscribe?"+rawQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", lastEventID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("resume subscribe status %d: %s", resp.StatusCode, body)
	}
	c := &sseConn{resp: resp, sc: bufio.NewScanner(resp.Body)}
	t.Cleanup(func() { resp.Body.Close() })
	return c
}

// TestSubscribeLastEventIDResume pins SSE reconnect semantics: a client
// replaying an id BEHIND the engine gets the current estimate pushed
// immediately; a client already AT the engine's version gets nothing
// until the next real mutation (no redundant re-send of state it
// acknowledged); and a garbage header degrades to fresh-subscriber
// behavior, never an error.
func TestSubscribeLastEventIDResume(t *testing.T) {
	_, ts, eng := subTestServer(t, Config{})
	ingestJSON(t, ts.URL, `{"instance":0,"key":"alpha","weight":2},{"instance":1,"key":"alpha","weight":1}`)

	// First connection: note the id the server labels the current state
	// with, then drop the connection (scoped context).
	ctx1, cancel1 := context.WithCancel(context.Background())
	c1 := subscribeSSE(t, ctx1, ts.URL, "func=max&estimator=lstar")
	first := c1.nextPush(t)
	firstID := c1.lastID
	if firstID == "" {
		t.Fatal("initial push carried no id: line")
	}
	cancel1()

	// The cluster advances while the client is gone.
	ingestJSON(t, ts.URL, `{"instance":0,"key":"beta","weight":5}`)
	v2 := eng.Version()
	if v2 <= first.Version {
		t.Fatalf("engine version %d did not advance past %d", v2, first.Version)
	}

	// Behind-client resume: immediate catch-up push at the current
	// version.
	c2 := resumeSSE(t, context.Background(), ts.URL, "func=max&estimator=lstar", firstID)
	caught := c2.nextPush(t)
	if caught.Version != v2 {
		t.Fatalf("resume catch-up version %d, want %d", caught.Version, v2)
	}
	if *caught.Results[0].Estimate <= *first.Results[0].Estimate {
		t.Fatalf("resumed estimate did not grow: %g -> %g",
			*first.Results[0].Estimate, *caught.Results[0].Estimate)
	}

	// Caught-up client: no initial re-send; the first event it ever sees
	// is the push for the NEXT mutation.
	c3 := resumeSSE(t, context.Background(), ts.URL, "func=max&estimator=lstar", c2.lastID)
	ingestJSON(t, ts.URL, `{"instance":1,"key":"gamma","weight":7}`)
	next := c3.nextPush(t)
	if next.Version <= v2 {
		t.Fatalf("caught-up resume got version %d, want > %d (a redundant initial re-send)", next.Version, v2)
	}

	// Unparsable header: fresh-subscriber semantics, current state pushed.
	c4 := resumeSSE(t, context.Background(), ts.URL, "func=max&estimator=lstar", "not-a-version")
	fresh := c4.nextPush(t)
	if fresh.Version != eng.Version() {
		t.Fatalf("garbage Last-Event-ID: push version %d, want current %d", fresh.Version, eng.Version())
	}

	// The wire counters saw exactly the three parseable resume headers.
	_, stats := getJSON(t, ts.URL+"/v1/stats")
	wire, ok := stats["wire"].(map[string]any)
	if !ok {
		t.Fatalf("/v1/stats has no wire section: %v", stats)
	}
	if got := wire["resumes"]; got != float64(2) {
		t.Fatalf("wire.resumes = %v, want 2", got)
	}
}

// TestSubscribeLastEventIDAboveCurrentIsFresh pins the restart-safety
// half of resume: versions are process-local and reset when the server
// restarts, so a reconnecting client can replay an id far ABOVE the
// current version (its id came from the previous incarnation — or from a
// buggy client). Honoring it would suppress every push until the version
// caught up, a silent gap despite changed state; instead it degrades to
// fresh-subscriber semantics — an immediate initial push at the current
// version — and does not count as a resume.
func TestSubscribeLastEventIDAboveCurrentIsFresh(t *testing.T) {
	_, ts, eng := subTestServer(t, Config{})
	ingestJSON(t, ts.URL, `{"instance":0,"key":"alpha","weight":2}`)

	c := resumeSSE(t, context.Background(), ts.URL, "func=max&estimator=lstar",
		fmt.Sprintf("%d", eng.Version()+1000000))
	fresh := c.nextPush(t)
	if fresh.Version != eng.Version() {
		t.Fatalf("future Last-Event-ID: push version %d, want immediate push at current %d",
			fresh.Version, eng.Version())
	}

	_, stats := getJSON(t, ts.URL+"/v1/stats")
	wire, ok := stats["wire"].(map[string]any)
	if !ok {
		t.Fatalf("/v1/stats has no wire section: %v", stats)
	}
	if got := wire["resumes"]; got != float64(0) {
		t.Fatalf("wire.resumes = %v, want 0 (a clamped id is not a resume)", got)
	}
}
