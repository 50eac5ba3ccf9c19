package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/streamclient"
)

// failingJournal accepts room appends, then fails like a full disk. Every
// applied stream frame is one append, so a node journaled through it
// fails its share stream at a chosen frame.
type failingJournal struct{ room atomic.Int64 }

func (j *failingJournal) Append([]engine.Update) error {
	if j.room.Add(-1) < 0 {
		return errors.New("disk full")
	}
	return nil
}

// routedCluster is nodes behind real HTTP — each counting its /v1/stream
// requests — a coordinator over them, and the coordinator's server front.
type routedCluster struct {
	engs     []*engine.Engine
	urls     []string
	journals []*failingJournal
	streams  []*atomic.Int64
	coord    *cluster.Coordinator
	front    *httptest.Server
}

var routedConfig = engine.Config{Instances: 2, K: 16, Shards: 4, Hash: sampling.NewSeedHash(41)}

// newRoutedCluster starts n journaled nodes with room to spare. nodeURL,
// when set, rewrites a node's address as the coordinator sees it (a
// fault proxy in front of it).
func newRoutedCluster(tb testing.TB, n int, timeout time.Duration, nodeURL func(i int, url string) string) *routedCluster {
	tb.Helper()
	c := &routedCluster{}
	var nodes []string
	for i := 0; i < n; i++ {
		eng, err := engine.New(routedConfig)
		if err != nil {
			tb.Fatal(err)
		}
		j := &failingJournal{}
		j.room.Store(1 << 40)
		eng.SetJournal(j)
		srv := server.New(eng)
		count := &atomic.Int64{}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/stream" {
				count.Add(1)
			}
			srv.ServeHTTP(w, r)
		}))
		tb.Cleanup(ts.Close)
		c.engs, c.journals, c.streams = append(c.engs, eng), append(c.journals, j), append(c.streams, count)
		c.urls = append(c.urls, ts.URL)
		url := ts.URL
		if nodeURL != nil {
			url = nodeURL(i, url)
		}
		nodes = append(nodes, url)
	}
	coord, err := cluster.New(cluster.Config{Nodes: nodes, Engine: routedConfig, Timeout: timeout})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(coord.Close)
	cluster.SetBreakers(coord, cluster.NeverTrip, 0)
	c.coord = coord
	c.front = httptest.NewServer(server.NewWith(coord.Engine(),
		server.Config{Snapshots: coord, Ingest: coord, Cluster: coord}))
	tb.Cleanup(c.front.Close)
	return c
}

// wire reads a server's /v1/stats wire section.
func wire(tb testing.TB, url string) server.WireStats {
	tb.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Wire server.WireStats `json:"wire"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		tb.Fatal(err)
	}
	return st.Wire
}

// ownedFrame is a frame of n fresh keys owned by the given nodes in turn.
func ownedFrame(ring *cluster.Ring, owners []int, n int, next *uint64, rng *rand.Rand) []engine.Update {
	f := make([]engine.Update, 0, n)
	for len(f) < n {
		key := *next
		*next++
		if ring.Owner(key) != owners[len(f)%len(owners)] {
			continue
		}
		f = append(f, engine.Update{Instance: rng.Intn(2), Key: key, Weight: 1 + float64(rng.Intn(1000))})
	}
	return f
}

// sendStream streams frames to base and returns the client's view of the
// answer.
func sendStream(tb testing.TB, base string, frames [][]engine.Update) (streamclient.StreamSummary, error) {
	tb.Helper()
	s, err := streamclient.OpenStream(context.Background(), nil, base)
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range frames {
		if s.Send(f) != nil {
			break // Close has the cause
		}
	}
	return s.Close()
}

// TestRoutedStreamTornShareResumes tears one owner's share stream at its
// j-th frame (the node's journal fills) and checks the torn-frame contract
// through the coordinator: the envelope's applied_frames is the prefix
// every share of which landed, mapped back through the torn node's frame
// list (frames without a share for it do not count against it); only that
// prefix enters the coordinator's wire counters; the node's retry under
// the same key re-applies nothing; and resuming the client stream from
// applied_frames leaves the merged view identical to a union engine fed
// the whole stream.
func TestRoutedStreamTornShareResumes(t *testing.T) {
	c := newRoutedCluster(t, 3, 2*time.Second, nil)
	ring := c.coord.Ring()
	rng := rand.New(rand.NewSource(5))
	const torn, j = 1, 2
	// Frames 0 and 3 carry no share for the torn node; its shares sit in
	// frames 1, 2, 4, ... so its share j = 2 is client frame 4.
	var next uint64
	var frames [][]engine.Update
	var tornFrames []int
	for f := 0; f < 8; f++ {
		owners := []int{0, 1, 2}
		if f == 0 || f == 3 {
			owners = []int{0, 2}
		} else {
			tornFrames = append(tornFrames, f)
		}
		frames = append(frames, ownedFrame(ring, owners, 24, &next, rng))
	}
	want := tornFrames[j]
	union, err := engine.New(routedConfig)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := union.IngestBatch(f); err != nil {
			t.Fatal(err)
		}
	}

	c.journals[torn].room.Store(j)
	_, err = sendStream(t, c.front.URL, frames)
	var se *streamclient.StreamError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable ||
		!strings.Contains(se.Message, "disk full") {
		t.Fatalf("torn routed stream: %v, want a 503 naming the node's journal failure", err)
	}
	if se.AppliedFrames != want {
		t.Fatalf("applied_frames = %d, want %d (the torn node's share %d is client frame %d)",
			se.AppliedFrames, want, j, want)
	}
	applied := 0
	for _, f := range frames[:want] {
		applied += len(f)
	}
	if se.AppliedUpdates != applied {
		t.Fatalf("applied_updates = %d, want %d", se.AppliedUpdates, applied)
	}
	if w := wire(t, c.front.URL); w.StreamFrames != uint64(want) || w.StreamUpdates != uint64(applied) {
		t.Fatalf("coordinator wire counted %d frames / %d updates, want the prefix %d / %d",
			w.StreamFrames, w.StreamUpdates, want, applied)
	}
	// The retry under the same key skipped the two shares the node had
	// applied: its engine counts each update once.
	tornApplied := 0
	for _, f := range tornFrames[:j] {
		for _, u := range frames[f] {
			if ring.Owner(u.Key) == torn {
				tornApplied++
			}
		}
	}
	if got := c.engs[torn].Stats().Ingests; got != uint64(tornApplied) {
		t.Fatalf("torn node ingested %d updates, want %d — the replay re-applied", got, tornApplied)
	}
	if got := c.streams[torn].Load(); got != 2 {
		t.Fatalf("torn node saw %d stream requests, want the attempt and its one replay", got)
	}

	// Resume from applied_frames.
	c.journals[torn].room.Store(1 << 40)
	sum, err := sendStream(t, c.front.URL, frames[want:])
	if err != nil || sum.Frames != len(frames)-want {
		t.Fatalf("resumed stream: %+v, %v", sum, err)
	}
	view, _, err := syncRead(context.Background(), c.coord)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSnapshot(t, "resumed", view, union.FreshView(), sumEstimators(t, 2))
}

// TestRoutedJSONBatchLargerThanOneFrame: a /v1/ingest batch whose share
// exceeds one frame goes to its owner as several frames of ONE stream,
// all mapped to the one client batch — so a share torn after its first
// chunk fails the whole batch, yet RoutedUpdates counts the chunk that
// landed.
func TestRoutedJSONBatchLargerThanOneFrame(t *testing.T) {
	c := newRoutedCluster(t, 3, 2*time.Second, nil)
	ring := c.coord.Ring()
	rng := rand.New(rand.NewSource(9))
	const owner, size = 2, 5000 // 4096 + 904: two frames
	var next uint64
	batch := ownedFrame(ring, []int{owner}, size, &next, rng)
	body := func() io.Reader {
		ups := make([]map[string]any, len(batch))
		for i, u := range batch {
			ups[i] = map[string]any{"instance": u.Instance, "id": u.Key, "weight": u.Weight}
		}
		b, err := json.Marshal(map[string]any{"updates": ups})
		if err != nil {
			t.Fatal(err)
		}
		return strings.NewReader(string(b))
	}

	c.journals[owner].room.Store(1)
	resp, err := http.Post(c.front.URL+"/v1/ingest", "application/json", body())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("torn JSON batch answered %d, want 503", resp.StatusCode)
	}
	if got := c.coord.Stats().RoutedUpdates; got != 4096 {
		t.Fatalf("RoutedUpdates = %d, want the landed first chunk (4096)", got)
	}

	c.journals[owner].room.Store(1 << 40)
	before := wire(t, c.urls[owner]).StreamFrames
	requests := c.streams[owner].Load()
	resp, err = http.Post(c.front.URL+"/v1/ingest", "application/json", body())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON batch answered %d, want 200", resp.StatusCode)
	}
	if got := wire(t, c.urls[owner]).StreamFrames - before; got != 2 {
		t.Fatalf("owner applied %d frames for the batch, want 2 chunks", got)
	}
	if got := c.streams[owner].Load() - requests; got != 1 {
		t.Fatalf("owner saw %d stream requests for the batch, want 1", got)
	}
	union, err := engine.New(routedConfig)
	if err != nil {
		t.Fatal(err)
	}
	if err := union.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	view, _, err := syncRead(context.Background(), c.coord)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSnapshot(t, "json", view, union.FreshView(), sumEstimators(t, 2))
}

// TestRoutedStreamOneRequestPerOwner pins the mechanism: a 10-frame
// routed stream reaches each owner in exactly ONE /v1/stream request, and
// the nodes apply exactly one frame per non-empty share.
func TestRoutedStreamOneRequestPerOwner(t *testing.T) {
	c := newRoutedCluster(t, 3, 2*time.Second, nil)
	ring := c.coord.Ring()
	rng := rand.New(rand.NewSource(3))
	frames := make([][]engine.Update, 10)
	shares := 0
	for f := range frames {
		seen := map[int]bool{}
		for i := 0; i < 256; i++ {
			key := rng.Uint64()
			frames[f] = append(frames[f], engine.Update{Instance: i % 2, Key: key, Weight: 1 + rng.Float64()})
			seen[ring.Owner(key)] = true
		}
		shares += len(seen)
	}
	sum, err := sendStream(t, c.front.URL, frames)
	if err != nil || sum.Frames != 10 || sum.Updates != 2560 {
		t.Fatalf("routed stream: %+v, %v", sum, err)
	}
	var applied uint64
	for i, url := range c.urls {
		if got := c.streams[i].Load(); got != 1 {
			t.Fatalf("node %d saw %d stream requests, want 1", i, got)
		}
		applied += wire(t, url).StreamFrames
	}
	if applied != uint64(shares) {
		t.Fatalf("nodes applied %d frames, want one per non-empty share (%d)", applied, shares)
	}
	if got := c.coord.Stats().RoutedUpdates; got != 2560 {
		t.Fatalf("RoutedUpdates = %d, want 2560", got)
	}
}

// TestRoutedUpdatesCountsLandedShares: with one owner dead, the batch
// fails, but the updates its live owner acknowledged are counted as
// routed — they were forwarded and they landed.
func TestRoutedUpdatesCountsLandedShares(t *testing.T) {
	c := newRoutedCluster(t, 2, 500*time.Millisecond, func(i int, url string) string {
		if i == 1 {
			return "http://127.0.0.1:1" // nothing listens: connection refused
		}
		return url
	})
	ring := c.coord.Ring()
	rng := rand.New(rand.NewSource(1))
	var next uint64
	live := ownedFrame(ring, []int{0}, 3, &next, rng)
	dead := ownedFrame(ring, []int{1}, 2, &next, rng)
	err := c.coord.IngestBatch(context.Background(), append(live, dead...))
	var ne *cluster.NodeError
	if !errors.As(err, &ne) || !ne.Unavailable() {
		t.Fatalf("batch with a dead owner: %v, want an unavailable NodeError", err)
	}
	if got := c.coord.Stats().RoutedUpdates; got != uint64(len(live)) {
		t.Fatalf("RoutedUpdates = %d, want the live owner's %d", got, len(live))
	}
	if got := c.engs[0].Stats().Ingests; got != uint64(len(live)) {
		t.Fatalf("live owner ingested %d, want %d", got, len(live))
	}
}

// TestRoutedStreamAbortClosesUpstreams: a client that disconnects mid-
// stream leaves no upstream open — every node's active_streams returns to
// 0 and the goroutine count settles.
func TestRoutedStreamAbortClosesUpstreams(t *testing.T) {
	c := newRoutedCluster(t, 3, 2*time.Second, nil)
	rng := rand.New(rand.NewSource(11))
	frame := func() []engine.Update {
		f := make([]engine.Update, 64)
		for i := range f {
			f[i] = engine.Update{Instance: i % 2, Key: rng.Uint64(), Weight: 1 + rng.Float64()}
		}
		return f
	}
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	// Warm the connections a clean stream leaves idle, then take the
	// baseline.
	if _, err := sendStream(t, c.front.URL, [][]engine.Update{frame(), frame()}); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	ctx, abort := context.WithCancel(context.Background())
	defer abort()
	pr, pw := io.Pipe()
	// The transport waits for its body writer, so a failing test must
	// close the pipe too, or it hangs.
	defer pw.CloseWithError(context.Canceled)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.front.URL+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", store.StreamContentType)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	buf := store.AppendStreamHeader(nil)
	for i := 0; i < 3; i++ {
		buf = store.AppendFrame(buf, frame())
	}
	if _, err := pw.Write(buf); err != nil {
		t.Fatal(err)
	}
	eventually(t, "every node has the stream open", func() bool {
		for _, url := range c.urls {
			if wire(t, url).ActiveStreams != 1 {
				return false
			}
		}
		return true
	})
	abort()
	pw.CloseWithError(context.Canceled)
	<-done
	eventually(t, "every upstream closed", func() bool {
		for _, url := range c.urls {
			if wire(t, url).ActiveStreams != 0 {
				return false
			}
		}
		return wire(t, c.front.URL).ActiveStreams == 0
	})
	hc.CloseIdleConnections()
	eventually(t, fmt.Sprintf("goroutines back to the baseline %d", baseline), func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// eventually polls cond for up to 5 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRoutedStreamDeadOwnerFailsInTime: a blackholed owner (it accepts and
// swallows, never answers) fails the routed stream with a 503 within
// Timeout × (1 + nodeRetries) plus backoff after the last frame — the
// timeout bounds the wait for each attempt's answer, not the stream.
func TestRoutedStreamDeadOwnerFailsInTime(t *testing.T) {
	const timeout = 300 * time.Millisecond
	var proxy *fault.Proxy
	c := newRoutedCluster(t, 3, timeout, func(i int, url string) string {
		if i != 2 {
			return url
		}
		var err error
		if proxy, err = fault.NewProxy(strings.TrimPrefix(url, "http://")); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { proxy.Close() })
		return proxy.URL()
	})
	proxy.Blackhole(true)
	rng := rand.New(rand.NewSource(13))
	frames := make([][]engine.Update, 5)
	for f := range frames {
		for i := 0; i < 64; i++ {
			frames[f] = append(frames[f], engine.Update{Instance: i % 2, Key: rng.Uint64(), Weight: 1})
		}
	}
	s, err := streamclient.OpenStream(context.Background(), nil, c.front.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := s.Send(f); err != nil {
			t.Fatalf("send before the end: %v", err)
		}
	}
	start := time.Now()
	_, err = s.Close()
	elapsed := time.Since(start)
	var se *streamclient.StreamError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("stream with a blackholed owner: %v, want 503", err)
	}
	if se.AppliedFrames != 0 {
		t.Fatalf("applied_frames = %d, want 0 (every frame has a share for the dead node)", se.AppliedFrames)
	}
	// Two attempts of one timeout each, the 25 ms backoff cap between
	// them, and scheduling slack.
	if limit := 2*timeout + 25*time.Millisecond + 400*time.Millisecond; elapsed > limit || elapsed < timeout {
		t.Fatalf("dead owner failed the stream %v after its last frame, want within [%v, %v]", elapsed, timeout, limit)
	}
}

// TestRoutedProbeSettlesWhileClientIdles: a routed stream that takes a
// node's half-open probe settles it on the shares at hand. An open, idle
// client stream must not hold the probe slot, or every sync of a healthy
// node would short-circuit until the client closed.
func TestRoutedProbeSettlesWhileClientIdles(t *testing.T) {
	var proxy *fault.Proxy
	var nodes []string
	c := newRoutedCluster(t, 3, 2*time.Second, func(i int, url string) string {
		if i == 2 {
			var err error
			if proxy, err = fault.NewProxy(strings.TrimPrefix(url, "http://")); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { proxy.Close() })
			url = proxy.URL()
		}
		nodes = append(nodes, url)
		return url
	})
	// A timeout past eventually's wait: an idle close cannot settle the
	// probe in its place.
	coord, err := cluster.New(cluster.Config{Nodes: nodes, Engine: routedConfig, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cluster.SetBreakers(coord, 1, 50*time.Millisecond)
	front := httptest.NewServer(server.NewWith(coord.Engine(),
		server.Config{Snapshots: coord, Ingest: coord, Cluster: coord}))
	defer front.Close()
	breaker := func() string { return nodeStatsFor(t, coord, nodes[2]).Breaker }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // a failing test must not leave the client stream open
	proxy.Partition(true)
	if err := coord.Sync(ctx); err == nil || breaker() != "open" {
		t.Fatalf("sync through a partition: %v, breaker %s; want a failure and an open breaker", err, breaker())
	}
	proxy.Partition(false)
	time.Sleep(60 * time.Millisecond) // past the cooldown: the next contact probes

	var next uint64
	frame := ownedFrame(c.coord.Ring(), []int{0, 1, 2}, 30, &next, rand.New(rand.NewSource(17)))
	s, err := streamclient.OpenStream(ctx, nil, front.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(frame); err != nil {
		t.Fatal(err)
	}
	// The client stays open and sends nothing more.
	eventually(t, "the routed probe closed the breaker", func() bool { return breaker() == "closed" })
	if err := coord.Sync(ctx); err != nil {
		t.Fatalf("sync beside an idle routed stream: %v", err)
	}
	if sum, err := s.Close(); err != nil || sum.Frames != 1 {
		t.Fatalf("routed stream: %+v, %v", sum, err)
	}
}

// TestRoutedIdleClientFreesNodeSlots: a client that sends nothing for the
// node timeout does not hold its owners' in-flight slots. Each upstream
// closes with its shares acknowledged, and the client's next frame opens
// a new one; the stream still lands every share exactly once.
func TestRoutedIdleClientFreesNodeSlots(t *testing.T) {
	c := newRoutedCluster(t, 3, 200*time.Millisecond, nil)
	rng := rand.New(rand.NewSource(19))
	var next uint64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // a failing test must not leave the client stream open
	s, err := streamclient.OpenStream(ctx, nil, c.front.URL)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 2; f++ {
		if err := s.Send(ownedFrame(c.coord.Ring(), []int{0, 1, 2}, 30, &next, rng)); err != nil {
			t.Fatal(err)
		}
		// Each node must first have opened this frame's upstream: before
		// that, "no upstream active" also holds and the next frame would
		// share this frame's stream.
		eventually(t, "every idle upstream closed under an open client stream", func() bool {
			for i, url := range c.urls {
				if c.streams[i].Load() < int64(f+1) || wire(t, url).ActiveStreams != 0 {
					return false
				}
			}
			return wire(t, c.front.URL).ActiveStreams == 1
		})
	}
	if sum, err := s.Close(); err != nil || sum.Frames != 2 || sum.Updates != 60 {
		t.Fatalf("routed stream: %+v, %v", sum, err)
	}
	for i, url := range c.urls {
		if got := c.streams[i].Load(); got != 2 {
			t.Fatalf("node %d saw %d stream requests, want one per idle-separated frame (2)", i, got)
		}
		if w := wire(t, url); w.StreamFrames != 2 || w.StreamFramesDeduped != 0 {
			t.Fatalf("node %d applied %d frames (%d deduped), want 2 (0)", i, w.StreamFrames, w.StreamFramesDeduped)
		}
	}
	if got := c.coord.Stats().RoutedUpdates; got != 60 {
		t.Fatalf("RoutedUpdates = %d, want 60", got)
	}
}
