package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/estreg"
	"repro/internal/funcs"
	"repro/internal/sampling"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// These tests hold the per-version response table (snapshot.go): a
// /v1/query body answered once at a version is answered again with the
// stored bytes, and nothing else is.

// memoEngine returns an engine holding ladderDataset(n), fed in process.
func memoEngine(t *testing.T, n int) *engine.Engine {
	t.Helper()
	eng, err := engine.New(engine.Config{Instances: 2, K: 8, Shards: 4, Hash: sampling.NewSeedHash(7)})
	if err != nil {
		t.Fatal(err)
	}
	d := ladderDataset(t, n)
	for i := 0; i < d.R(); i++ {
		for k := 0; k < d.N(); k++ {
			if d.W[i][k] > 0 {
				if err := eng.Ingest(i, uint64(k), d.W[i][k]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return eng
}

// serveQuery answers one /v1/query body in process.
func serveQuery(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	return rec
}

// stored reports whether s's current memo holds a response to body.
func stored(s *Server, body []byte) bool {
	mm := s.memo.Load()
	return mm != nil && mm.response(body) != nil
}

// TestQueryResponseTableByteIdentity: over a seeded set of requests —
// every registered estimator, several functions, selections, jaccard,
// and per-query errors — the stored answer a hit writes is byte for byte
// the miss's answer, which is byte for byte what a server with an empty
// memo answers at that version.
func TestQueryResponseTableByteIdentity(t *testing.T) {
	eng := memoEngine(t, 40)
	s := New(eng)
	estimators := []string{"lstar", "ustar", "ht", "voptimal", "order:vals=0.25,0.5,1;by=asc"}
	for _, name := range s.reg.Names() {
		covered := false
		for _, e := range estimators {
			covered = covered || strings.SplitN(e, ":", 2)[0] == name
		}
		if !covered {
			t.Fatalf("registered estimator %q is missing from the request set", name)
		}
	}
	specs := []map[string]any{
		{"statistic": "jaccard"},
		{"keys": []string{"never-ingested"}},     // a per-query error: unknown key
		{"func": "rg", "p": 1, "estimator": "x"}, // a per-query error: unknown estimator
	}
	for _, e := range estimators {
		specs = append(specs,
			map[string]any{"func": "rg", "p": 1, "estimator": e},
			map[string]any{"func": "rg", "p": 2, "estimator": e},
			map[string]any{"func": "max", "estimator": e, "ids": []int{3, 5, 8}},
		)
	}
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < 24; r++ {
		queries := make([]map[string]any, 1+rng.Intn(4))
		for i := range queries {
			queries[i] = specs[rng.Intn(len(specs))]
		}
		if r < len(specs) {
			queries[0] = specs[r] // every spec at least once
		}
		body, err := json.Marshal(map[string]any{"queries": queries})
		if err != nil {
			t.Fatal(err)
		}
		miss := serveQuery(s, body)
		if miss.Code != http.StatusOK || !stored(s, body) {
			t.Fatalf("request %d: status %d, stored %v: %s", r, miss.Code, stored(s, body), miss.Body)
		}
		hit := serveQuery(s, body)
		fresh := serveQuery(New(eng), body)
		for label, rec := range map[string]*httptest.ResponseRecorder{"hit": hit, "fresh": fresh} {
			if rec.Code != miss.Code || !bytes.Equal(rec.Body.Bytes(), miss.Body.Bytes()) ||
				rec.Header().Get("Content-Type") != miss.Header().Get("Content-Type") {
				t.Fatalf("request %d: %s answered %d %q\n%s\nmiss answered %d %q\n%s", r, label,
					rec.Code, rec.Header().Get("Content-Type"), rec.Body, miss.Code, miss.Header().Get("Content-Type"), miss.Body)
			}
		}
	}
}

// switchReporter is a ClusterReporter whose degraded label tests turn on
// and off.
type switchReporter struct{ on atomic.Bool }

func (d *switchReporter) Stats() Stats { return Stats{} }

func (d *switchReporter) Degraded() *Degraded {
	if !d.on.Load() {
		return nil
	}
	return &Degraded{Policy: "quorum=2", Reachable: 2, Total: 3, Missing: []MissingNode{{Node: "n2", StaleSeconds: -1, NeverMerged: true}}}
}

// TestQueryResponseTableBypass: a newer version, a degraded round and a
// 4xx are never answered from the table, and the last two never enter it.
func TestQueryResponseTableBypass(t *testing.T) {
	eng := memoEngine(t, 40)
	rep := new(switchReporter)
	s := NewWith(eng, Config{Cluster: rep})
	body := []byte(`{"queries":[{"func":"rg","p":1},{"statistic":"jaccard"}]}`)
	first := serveQuery(s, body)
	if !stored(s, body) {
		t.Fatal("a clean 200 was not stored")
	}

	// A new version: the answer is the new version's.
	if err := eng.Ingest(0, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	moved := serveQuery(s, body)
	if want := serveQuery(New(eng), body); bytes.Equal(moved.Body.Bytes(), first.Body.Bytes()) || !bytes.Equal(moved.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("after an ingest answered\n%s\nwant\n%s", moved.Body, want.Body)
	}

	// A degraded round: labelled, and not stored.
	rep.on.Store(true)
	if err := eng.Ingest(0, 2, 1e6); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rec := serveQuery(s, body)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"degraded":{`) || stored(s, body) {
			t.Fatalf("degraded round %d: status %d, stored %v: %s", i, rec.Code, stored(s, body), rec.Body)
		}
	}
	// A stored answer is not served to a degraded round either.
	rep.on.Store(false)
	clean := serveQuery(s, body)
	rep.on.Store(true)
	if rec := serveQuery(s, body); !stored(s, body) || !strings.Contains(rec.Body.String(), `"degraded":{`) ||
		!bytes.Equal(rec.Body.Bytes()[:bytes.Index(rec.Body.Bytes(), []byte(`,"degraded":{`))], bytes.TrimSuffix(clean.Body.Bytes(), []byte("}\n"))) {
		t.Fatalf("degraded round over a stored answer:\n%s\nclean answer:\n%s", rec.Body, clean.Body)
	}
	rep.on.Store(false)

	// A 4xx: answered afresh every time, never stored.
	for _, bad := range []string{`{"queries":[`, `{"queries":[]}`, `{"queries":[{"estimtor":"lstar"}]}`} {
		for i := 0; i < 2; i++ {
			if rec := serveQuery(s, []byte(bad)); rec.Code != http.StatusBadRequest || stored(s, []byte(bad)) {
				t.Fatalf("%s (try %d): status %d, stored %v", bad, i, rec.Code, stored(s, []byte(bad)))
			}
		}
	}
}

// countingSource counts the syncs a server makes.
type countingSource struct{ syncs atomic.Int64 }

func (c *countingSource) Sync(context.Context) error {
	c.syncs.Add(1)
	return nil
}

// TestQueryHitAcquiresOnceAndBuildsNothing: a hit syncs the snapshot
// source exactly once, so a coordinator still reads its own writes, and
// builds no estimator; a stored body the engine has moved past is
// answered afresh from that one sync; a malformed request syncs nothing.
func TestQueryHitAcquiresOnceAndBuildsNothing(t *testing.T) {
	var builds atomic.Int64
	reg := estreg.Default()
	if err := reg.Register("counted", func(_ string, f funcs.F, r int) (estreg.Estimator, estreg.Meta, error) {
		builds.Add(1)
		return estreg.Default().Build("lstar", f, r)
	}); err != nil {
		t.Fatal(err)
	}
	src := new(countingSource)
	eng := memoEngine(t, 40)
	s := NewWith(eng, Config{Registry: reg, Snapshots: src})
	body := []byte(`{"queries":[{"func":"rg","p":1,"estimator":"counted"}]}`)
	for i := int64(1); i <= 3; i++ {
		if rec := serveQuery(s, body); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if got := src.syncs.Load(); got != i {
			t.Fatalf("after %d requests: %d syncs, want %d", i, got, i)
		}
		if got := builds.Load(); got != 1 {
			t.Fatalf("after %d requests: %d estimator builds, want the miss's 1", i, got)
		}
	}
	if err := eng.Ingest(0, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	if rec := serveQuery(s, body); rec.Code != http.StatusOK || src.syncs.Load() != 4 || builds.Load() != 2 {
		t.Fatalf("after an ingest: status %d, %d syncs, %d builds, want 200, 4 and 2", rec.Code, src.syncs.Load(), builds.Load())
	}
	if rec := serveQuery(s, []byte(`{"queries":[`)); rec.Code != http.StatusBadRequest || src.syncs.Load() != 4 {
		t.Fatalf("malformed request: status %d, %d syncs, want 400 and still 4", rec.Code, src.syncs.Load())
	}
}

// whitespaceVariant returns body with i spelled in JSON whitespace after
// its opening brace: a distinct body with the same answer.
func whitespaceVariant(body string, i int) []byte {
	ws := make([]byte, 0, 8)
	for j := 0; j < 8; j++ {
		ws = append(ws, " \t\n\r"[i%4])
		i /= 4
	}
	return []byte(body[:1] + string(ws) + body[1:])
}

// TestResponseTableStaysCapped: distinct bodies past maxMemoEntries, and
// bodies past maxMemoResponseBytes, stop being stored, and every one of
// them — stored or not — still answers the same bytes.
func TestResponseTableStaysCapped(t *testing.T) {
	const query = `{"queries":[{"estimator":"lstar"}]}`
	eng := memoEngine(t, 40)
	want := serveQuery(New(eng), []byte(query)).Body.Bytes()

	s := New(eng)
	for i := 0; i < maxMemoEntries+8; i++ {
		body := whitespaceVariant(query, i)
		if rec := serveQuery(s, body); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("body %d answered %s, want %s", i, rec.Body, want)
		}
		if got := stored(s, body); got != (i < maxMemoEntries) {
			t.Fatalf("body %d: stored = %v at %d stored responses", i, got, len(s.memo.Load().responses))
		}
	}
	if n := len(s.memo.Load().responses); n != maxMemoEntries {
		t.Fatalf("%d stored responses, want the cap %d", n, maxMemoEntries)
	}

	s = New(eng)
	pad := maxQueryBody - len(query) - 64
	fit := maxMemoResponseBytes / (pad + len(query) + len(want))
	for i := 0; i < fit+2; i++ {
		body := []byte(query + strings.Repeat(" ", pad+i))
		if rec := serveQuery(s, body); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("padded body %d answered %s, want %s", i, rec.Body, want)
		}
		if got := stored(s, body); got != (i < fit) {
			t.Fatalf("padded body %d: stored = %v with %d response bytes held", i, got, s.memo.Load().responseBytes)
		}
	}
	if mm := s.memo.Load(); mm.responseBytes > maxMemoResponseBytes || len(mm.responses) != fit {
		t.Fatalf("%d stored responses holding %d bytes, want %d within %d", len(mm.responses), mm.responseBytes, fit, maxMemoResponseBytes)
	}
}

// replayBody is a request body a test rewinds between requests.
type replayBody struct{ *bytes.Reader }

func (replayBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps nothing but its header.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header             { return d.h }
func (discardWriter) Write(b []byte) (int, error)       { return len(b), nil }
func (discardWriter) WriteHeader(int)                   {}
func (discardWriter) ReadFrom(io.Reader) (int64, error) { return 0, nil }

// maxHitAllocs is what a /v1/query hit allocates through Server.ServeHTTP:
// the body's size-capped reader and read buffer, and the Content-Type
// header's value. A stage timer wrapped around the hit path must leave it
// where it is.
const maxHitAllocs = 3

// TestQueryHitAllocs pins the allocations of a /v1/query hit.
func TestQueryHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := New(memoEngine(t, 40))
	body := []byte(`{"queries":[{"func":"rg","p":1,"estimator":"lstar"},{"statistic":"jaccard"}]}`)
	serveQuery(s, body)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/query", replayBody{rd})
	w := discardWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		s.ServeHTTP(w, req)
	})
	if !stored(s, body) || allocs > maxHitAllocs {
		t.Fatalf("a hit allocates %v times, ceiling %d (stored %v)", allocs, maxHitAllocs, stored(s, body))
	}
}
