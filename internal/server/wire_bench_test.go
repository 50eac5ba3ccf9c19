package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// wireBatch is the 256-update batch the ingest-throughput contrast pair
// shares: spread over both instances with distinct keys so the decode,
// shard routing and dominance checks all do real work.
func wireBatch() []engine.Update {
	batch := make([]engine.Update, 256)
	for i := range batch {
		batch[i] = engine.Update{Instance: i % 2, Key: uint64(i), Weight: float64(i%7) + 0.5}
	}
	return batch
}

// repeatingReader replays one encoded frame n times without materializing
// n copies — the request body for an arbitrarily long benchmark stream.
type repeatingReader struct {
	data []byte
	n    int
	off  int
}

func (r *repeatingReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	if r.off == len(r.data) {
		r.off = 0
		r.n--
	}
	return n, nil
}

// BenchmarkStreamIngest256 measures the binary streaming ingest path:
// one POST /v1/stream connection carrying b.N frames of 256 updates
// each. One op = one frame decoded and applied. The acceptance bar is
// >=5x BenchmarkIngestJSON256 — same batch, same engine work, so the
// gap is pure wire overhead (JSON decode + per-request routing).
func BenchmarkStreamIngest256(b *testing.B) {
	s := newBenchServer(b, 1<<10)
	frame := store.AppendFrame(nil, wireBatch())
	body := io.MultiReader(
		&repeatingReader{data: store.AppendStreamHeader(nil), n: 1},
		&repeatingReader{data: frame, n: b.N},
	)
	r := httptest.NewRequest(http.MethodPost, "/v1/stream", body)
	r.Header.Set("Content-Type", store.StreamContentType)
	w := httptest.NewRecorder()
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	s.ServeHTTP(w, r)
	b.StopTimer()
	if w.Code != http.StatusOK {
		b.Fatalf("stream: status %d body %s", w.Code, w.Body.String())
	}
	var sum struct {
		Frames  int `json:"frames"`
		Updates int `json:"updates"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &sum); err != nil {
		b.Fatal(err)
	}
	if sum.Frames != b.N || sum.Updates != b.N*256 {
		b.Fatalf("server applied %d frames / %d updates, want %d / %d", sum.Frames, sum.Updates, b.N, b.N*256)
	}
}

// BenchmarkIngestJSON256 is the JSON contrast: the same 256-update batch
// through POST /v1/ingest, one request per op.
func BenchmarkIngestJSON256(b *testing.B) {
	s := newBenchServer(b, 1<<10)
	updates := make([]map[string]any, 0, 256)
	for _, u := range wireBatch() {
		updates = append(updates, map[string]any{
			"instance": u.Instance, "key": fmt.Sprint(u.Key), "weight": u.Weight,
		})
	}
	body, err := json.Marshal(map[string]any{"updates": updates})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do(b, s, http.MethodPost, "/v1/ingest", body)
	}
}

// BenchmarkSubscribeFanout measures one broadcast round — evaluate,
// encode, deliver — against n registered subscribers split over two
// distinct query shapes (so the round pays two evaluations and two
// encodings, then n channel deliveries). The acceptance bar: the 1000-
// subscriber round must fit within one default debounce window (100ms).
func BenchmarkSubscribeFanout(b *testing.B) {
	for _, n := range []int{10, 1000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s := newBenchServer(b, 1<<12)
			pl := s.newPlanner()
			p1 := 1.0
			specs := []querySpec{
				{},
				{Func: "rg", P: &p1, Estimator: "lstar"},
			}
			subs := make([]*subscriber, n)
			for i := range subs {
				q, err := pl.plan(specs[i%len(specs)])
				if err != nil {
					b.Fatal(err)
				}
				sub := &subscriber{
					queries:  []*plannedQuery{q},
					shareKey: q.memoKey(),
					events:   make(chan pushEvent, subscriberBuffer),
				}
				sub.lastVersion.Store(subVersionNone)
				if err := s.broadcast.register(sub, 0); err != nil {
					b.Fatal(err)
				}
				subs[i] = sub
			}
			b.Cleanup(func() {
				for _, sub := range subs {
					s.broadcast.unregister(sub)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A real mutation so the round re-evaluates rather than
				// deduping on version.
				if err := s.eng.Ingest(0, uint64(i)%64, float64(i+1)); err != nil {
					b.Fatal(err)
				}
				s.broadcast.round()
				b.StopTimer()
				// Drain on the consumer side so delivery never degrades
				// into drop-oldest churn — the measurement is the round.
				for _, sub := range subs {
					select {
					case <-sub.events:
					default:
					}
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkSubscribePushLag measures ingest→push lag over loopback with
// a 10ms debounce and one subscriber on the dash's first query. One op is
// a 4-frame POST /v1/stream, then the wait until the subscriber holds a
// push at or past the version the acknowledged stream left. Ops start one
// debounce apart (untimed), as write bursts do, so the lag shows whether
// a round starts when the stream ends or waits out the window.
func BenchmarkSubscribePushLag(b *testing.B) {
	const debounce = 10 * time.Millisecond
	s := NewWith(newBenchServer(b, 1<<10).eng, Config{SubscribeDebounce: debounce})
	ts := httptest.NewServer(s)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pushes := subscribeSSE(b, ctx, ts.URL, "func=rg&p=1&estimator=lstar").pushes()
	awaitPush(b, pushes, s.eng.Version(), 5*time.Second)
	// The loaded engine's pending wakeup starts one round that finds the
	// subscriber current; let it pass so the first op starts spaced too.
	time.Sleep(2 * debounce)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		time.Sleep(debounce)
		body := streamBody(pushBurst(i)...)
		b.StartTimer()
		resp, err := http.Post(ts.URL+"/v1/stream", store.StreamContentType, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("stream status %d", resp.StatusCode)
		}
		awaitPush(b, pushes, s.eng.Version(), 5*time.Second)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}
