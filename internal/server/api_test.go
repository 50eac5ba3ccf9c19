package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/estreg"
	"repro/internal/funcs"
	"repro/internal/sampling"
)

// These tests pin the /v1 response contract of the versioned snapshot
// pipeline: a top-level snapshot version on every read endpoint, one
// structured error envelope for everything (including requests that never
// reach a handler), the snapshot rebuild counters in /v1/stats and
// /metrics, and — the acceptance property — that serving through the
// rebuild path stays bit-identical to the batch pipeline under single-key
// mutations.

// TestResponseVersionField: every snapshot-backed endpoint reports the
// same top-level version while the engine is unchanged, and the version
// advances after an ingest.
func TestResponseVersionField(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestDataset(t, ts.URL, ladderDataset(t, 24))

	// read returns the version an endpoint reports: the top-level JSON
	// field, or for the binary /v1/export its ETag.
	read := func(path string) float64 {
		t.Helper()
		var resp *http.Response
		var body map[string]any
		switch path {
		case "/v1/query":
			resp, body = postJSON(t, ts.URL+path, map[string]any{
				"queries": []map[string]any{{"statistic": "sum"}, {"statistic": "jaccard"}},
			})
		case "/v1/export":
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			c, err := parseCursor(resp.Header.Get("ETag"))
			if resp.StatusCode != http.StatusOK || err != nil {
				t.Fatalf("%s: status %d ETag %q", path, resp.StatusCode, resp.Header.Get("ETag"))
			}
			return float64(c.version)
		default:
			resp, body = getJSON(t, ts.URL+path)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %v", path, resp.StatusCode, body)
		}
		v, ok := body["version"].(float64)
		if !ok {
			t.Fatalf("%s: no numeric top-level version in %v", path, body)
		}
		return v
	}

	paths := []string{"/v1/query", "/v1/stats", "/v1/export"}
	first := read(paths[0])
	if first == 0 {
		t.Fatal("version 0 after ingest")
	}
	for _, p := range paths[1:] {
		if v := read(p); v != first {
			t.Fatalf("%s: version %v, want %v (engine unchanged)", p, v, first)
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/ingest", map[string]any{
		"updates": []map[string]any{{"instance": 0, "key": "fresh", "weight": 1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d body %v", resp.StatusCode, body)
	}
	for _, p := range paths {
		if v := read(p); v <= first {
			t.Fatalf("%s: version %v did not advance past %v after ingest", p, v, first)
		}
	}
}

// TestUnroutedRequestsUseErrorEnvelope: the mux-level fallbacks — unknown
// path and wrong method — answer with the same JSON error envelope as
// handler errors, with the 405 keeping its Allow header.
func TestUnroutedRequestsUseErrorEnvelope(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, body := getJSON(t, ts.URL+"/v1/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: status %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("unknown path: Content-Type %q, want application/json", ct)
	}
	errObj, ok := body["error"].(map[string]any)
	if !ok || errObj["code"] != "not_found" {
		t.Fatalf("unknown path: body %v, want error.code not_found", body)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body = decodeBody(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("wrong method: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, http.MethodGet) {
		t.Fatalf("wrong method: Allow %q, want it to offer GET", allow)
	}
	errObj, ok = body["error"].(map[string]any)
	if !ok || errObj["code"] != "method_not_allowed" {
		t.Fatalf("wrong method: body %v, want error.code method_not_allowed", body)
	}
}

// TestRouteTable pins the exact set of registered patterns against the
// package doc's endpoint list: one spelling per capability, so a new
// route (or alias) is a deliberate diff here and in the doc. The
// spellings this surface used to carry answer the structured 404.
func TestRouteTable(t *testing.T) {
	want := []string{
		"POST /v1/ingest",
		"POST /v1/stream",
		"POST /v1/query",
		"GET /v1/subscribe",
		"GET /v1/stats",
		"POST /v1/checkpoint",
		"GET /v1/export",
		"POST /v1/import",
		"GET /metrics",
		"GET /healthz",
		"GET /readyz",
	}
	eng, err := engine.New(engine.Config{Instances: 2, K: 8, Hash: sampling.NewSeedHash(7)})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	var got []string
	for pattern := range srv.metrics {
		got = append(got, pattern)
	}
	sort.Strings(got)
	sorted := append([]string(nil), want...)
	sort.Strings(sorted)
	if !slices.Equal(got, sorted) {
		t.Fatalf("registered routes\n  %q\nwant\n  %q", got, sorted)
	}

	// The package doc lists each endpoint as "//\tMETHOD /path  description".
	src, err := os.ReadFile("server.go")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile(`(?m)^//\t(GET|POST) +(/\S+)`).FindAllStringSubmatch(string(src), -1) {
		documented = append(documented, m[1]+" "+m[2])
	}
	if !slices.Equal(documented, want) {
		t.Fatalf("package doc endpoints\n  %q\nwant\n  %q", documented, want)
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, gone := range []struct{ method, path string }{
		{http.MethodGet, "/v1/sketch"},
		{http.MethodPost, "/v1/merge"},
		{http.MethodGet, "/v1/estimate/sum?func=rg"},
		{http.MethodGet, "/v1/estimate/jaccard"},
	} {
		req, err := http.NewRequest(gone.method, ts.URL+gone.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := decodeBody(t, resp)
		errObj, _ := body["error"].(map[string]any)
		if resp.StatusCode != http.StatusNotFound || errObj["code"] != "not_found" {
			t.Errorf("%s %s: status %d body %v, want the structured 404", gone.method, gone.path, resp.StatusCode, body)
		}
	}
}

// TestStatsSnapshotCounters: /v1/stats exposes the snapshot rebuild
// counters and the per-shard breakdown, and they are mutually consistent
// — per-shard mutations sum to the version and per-shard keys sum to the
// key count.
func TestStatsSnapshotCounters(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestDataset(t, ts.URL, ladderDataset(t, 48))

	// Churn one key, snapshotting in between, so every round rebuilds.
	for round := 0; round < 4; round++ {
		resp, body := postJSON(t, ts.URL+"/v1/ingest", map[string]any{
			"updates": []map[string]any{{"instance": 0, "id": 0, "weight": float64(100 + round)}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: status %d body %v", resp.StatusCode, body)
		}
		queryOne(t, ts.URL, map[string]any{"estimator": "lstar"})
	}

	resp, body := getJSON(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d body %v", resp.StatusCode, body)
	}
	eng := body["engine"].(map[string]any)
	snap, ok := eng["snapshot"].(map[string]any)
	if !ok {
		t.Fatalf("stats: no engine.snapshot in %v", eng)
	}
	if snap["rebuilds"].(float64) == 0 {
		t.Fatalf("stats: zero snapshot rebuilds: %v", snap)
	}
	if snap["partitions_rebuilt"].(float64) == 0 {
		t.Fatalf("stats: zero partitions rebuilt: %v", snap)
	}

	perShard, ok := eng["per_shard"].([]any)
	if !ok || len(perShard) != int(eng["shards"].(float64)) {
		t.Fatalf("stats: per_shard %v, want one entry per shard", eng["per_shard"])
	}
	var muts, keys float64
	for _, raw := range perShard {
		sh := raw.(map[string]any)
		muts += sh["mutations"].(float64)
		keys += sh["keys"].(float64)
	}
	if muts != body["version"].(float64) {
		t.Fatalf("per-shard mutations sum %v != version %v", muts, body["version"])
	}
	if keys != eng["keys"].(float64) {
		t.Fatalf("per-shard keys sum %v != engine keys %v", keys, eng["keys"])
	}
}

// TestMetricsSnapshotSeries: /metrics carries the snapshot counters and
// the per-shard labeled series.
func TestMetricsSnapshotSeries(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestDataset(t, ts.URL, ladderDataset(t, 24))
	queryOne(t, ts.URL, map[string]any{"estimator": "lstar"})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"monest_snapshot_rebuilds_total",
		"monest_snapshot_partitions_rebuilt_total",
		"monest_snapshot_threshold_refreshes_total",
		"monest_snapshot_plan_rebuilds_total",
		`monest_shard_mutations_total{shard="0"}`,
		`monest_shard_keys{shard="3"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestIncrementalServingStaysExact is the HTTP-level half of the
// rebuild acceptance test: under a stream of single-key mutations,
// /v1/query answers — served through a rebuild per version and sparse
// sums over each view's exceptional outcomes — stay bit-identical
// to the batch pipeline (dataset.SampleBottomK + estreg.Sum) on the
// engine's current contents, for the full SumResult (estimate, second
// moment, max item) and for the Jaccard ratio.
func TestIncrementalServingStaysExact(t *testing.T) {
	ts, hash := newTestServer(t)
	const n = 48
	d := ladderDataset(t, n)
	ingestDataset(t, ts.URL, d)

	f, err := funcs.NewRG(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := estreg.Default()
	sumEst, _, err := reg.Build("lstar", f, 2)
	if err != nil {
		t.Fatal(err)
	}
	andEst, _, err := reg.Build("lstar", funcs.AndTuple{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	orEst, _, err := reg.Build("lstar", funcs.OrTuple{}, 2)
	if err != nil {
		t.Fatal(err)
	}

	// w mirrors the engine's max-folded contents across mutations.
	w := make([][]float64, d.R())
	for i := range w {
		w[i] = append([]float64(nil), d.W[i]...)
	}

	lastVersion := -1.0
	for round := 0; round < 24; round++ {
		if round > 0 {
			key := (round * 7) % n
			weight := float64(10 + round) // above the ladder: always a real mutation
			resp, body := postJSON(t, ts.URL+"/v1/ingest", map[string]any{
				"updates": []map[string]any{{"instance": round % 2, "id": key, "weight": weight}},
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d: ingest status %d body %v", round, resp.StatusCode, body)
			}
			w[round%2][key] = weight
		}

		cur, err := dataset.New(nil, w)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := dataset.SampleBottomK(cur, 8, hash)
		if err != nil {
			t.Fatal(err)
		}
		wantSum, err := estreg.Sum(sumEst, batch.Outcomes, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantAnd, err := estreg.Sum(andEst, batch.Outcomes, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantOr, err := estreg.Sum(orEst, batch.Outcomes, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantJac := 0.0
		if wantOr.Estimate != 0 {
			wantJac = wantAnd.Estimate / wantOr.Estimate
		}

		resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
			"queries": []map[string]any{
				{"statistic": "sum", "func": "rg", "p": 1, "estimator": "lstar"},
				{"statistic": "jaccard", "estimator": "lstar"},
			},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: query status %d body %v", round, resp.StatusCode, body)
		}
		version := body["version"].(float64)
		if version <= lastVersion {
			t.Fatalf("round %d: version %v did not advance past %v", round, version, lastVersion)
		}
		lastVersion = version

		results := body["results"].([]any)
		sumRes := results[0].(map[string]any)
		if sumRes["error"] != nil {
			t.Fatalf("round %d: sum error %v", round, sumRes["error"])
		}
		for field, want := range map[string]float64{
			"estimate":          wantSum.Estimate,
			"second_moment":     wantSum.SecondMoment,
			"max_item_estimate": wantSum.MaxItem,
			"items":             float64(wantSum.Items),
		} {
			if got := sumRes[field].(float64); got != want {
				t.Fatalf("round %d: sum %s = %v, want %v (drift on the incremental path)", round, field, got, want)
			}
		}
		jacRes := results[1].(map[string]any)
		if jacRes["error"] != nil {
			t.Fatalf("round %d: jaccard error %v", round, jacRes["error"])
		}
		if got := jacRes["estimate"].(float64); got != wantJac {
			t.Fatalf("round %d: jaccard %v, want %v", round, got, wantJac)
		}
	}
}

// TestPartialCacheSubsetAndErrorParity: a subset selection, answered from
// the exceptional outcomes alone, must agree with a locally computed
// estreg.Sum over the same items of the dense list; a failing estimator
// surfaces estreg.Sum's exact merged-index error message.
func TestPartialCacheSubsetAndErrorParity(t *testing.T) {
	hash := sampling.NewSeedHash(7)
	eng, err := engine.New(engine.Config{Instances: 2, K: 8, Shards: 4, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	reg := estreg.Default()
	if err := reg.Register("alwaysfail", func(string, funcs.F, int) (estreg.Estimator, estreg.Meta, error) {
		return alwaysFailEstimator{}, estreg.Meta{Estimator: "alwaysfail"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWith(eng, Config{Registry: reg}))
	t.Cleanup(ts.Close)
	d := ladderDataset(t, 32)
	ingestDataset(t, ts.URL, d)

	// Full-dataset first, so the memo holds a whole-set result when the
	// subset query arrives (the subset must not be answered from it).
	queryOne(t, ts.URL, map[string]any{"estimator": "lstar"})

	batch, err := dataset.SampleBottomK(d, 8, hash)
	if err != nil {
		t.Fatal(err)
	}
	f, err := funcs.NewRG(1)
	if err != nil {
		t.Fatal(err)
	}
	est, _, err := estreg.Default().Build("lstar", f, 2)
	if err != nil {
		t.Fatal(err)
	}
	items := []int{2, 3, 5, 7}
	want, err := estreg.Sum(est, batch.Outcomes, items)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]any, len(items))
	for i, it := range items {
		ids[i] = it
	}
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"queries": []map[string]any{{"statistic": "sum", "estimator": "lstar", "ids": ids}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subset query: status %d body %v", resp.StatusCode, body)
	}
	res := body["results"].([]any)[0].(map[string]any)
	if res["error"] != nil {
		t.Fatalf("subset query error: %v", res["error"])
	}
	if got := res["estimate"].(float64); got != want.Estimate {
		t.Fatalf("subset estimate %v, want %v", got, want.Estimate)
	}

	// The always-failing estimator declares nothing, so it sums over the
	// dense list and fails at merged index 0 as estreg.Sum does.
	resp, body = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"queries": []map[string]any{{"statistic": "sum", "estimator": "alwaysfail"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failing query: status %d body %v", resp.StatusCode, body)
	}
	res = body["results"].([]any)[0].(map[string]any)
	errObj, ok := res["error"].(map[string]any)
	if !ok {
		t.Fatalf("failing estimator produced no error: %v", res)
	}
	wantMsg := fmt.Sprintf("estreg: item %d: %s", 0, "alwaysfail: no estimate")
	if errObj["message"] != wantMsg {
		t.Fatalf("error message %q, want %q (estreg.Sum parity)", errObj["message"], wantMsg)
	}
}

// TestConcurrentQueriesDuringIngest churns single-key writes while many
// readers hit the snapshot-backed endpoints — under -race this exercises
// the single-flight result memo and the lazy dense-snapshot synthesis
// against concurrent snapshot rebuilds. Readers only
// sanity-check shape (finite estimate, version present); exactness under
// churn is covered deterministically above.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestDataset(t, ts.URL, ladderDataset(t, 64))

	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, body := postJSON(t, ts.URL+"/v1/ingest", map[string]any{
				"updates": []map[string]any{{"instance": i % 2, "id": (i * 11) % 64, "weight": float64(100 + i)}},
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("writer: status %d body %v", resp.StatusCode, body)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
					"queries": []map[string]any{
						{"statistic": "sum", "estimator": "lstar"},
						{"statistic": "jaccard"},
					},
				})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader: status %d body %v", resp.StatusCode, body)
					return
				}
				if _, ok := body["version"].(float64); !ok {
					t.Errorf("reader: no version in %v", body)
					return
				}
				for _, raw := range body["results"].([]any) {
					res := raw.(map[string]any)
					if res["error"] != nil {
						t.Errorf("reader: query error %v", res["error"])
						return
					}
					if est := res["estimate"].(float64); math.IsNaN(est) || math.IsInf(est, 0) {
						t.Errorf("reader: non-finite estimate %v", est)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// alwaysFailEstimator rejects every outcome — it exists to pin the error
// path of a served sum to estreg.Sum's behavior.
type alwaysFailEstimator struct{}

func (alwaysFailEstimator) Name() string { return "alwaysfail" }

func (alwaysFailEstimator) Estimate(sampling.TupleOutcome) (float64, error) {
	return 0, fmt.Errorf("alwaysfail: no estimate")
}

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestOversizedBodyIs413: a body over its endpoint's cap answers the
// structured 413 — not a 400 blaming the syntax of a body the server
// stopped reading.
func TestOversizedBodyIs413(t *testing.T) {
	eng, err := engine.New(engine.Config{Instances: 2, K: 8, Hash: sampling.NewSeedHash(7)})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	for _, tc := range []struct {
		path, open string
		limit      int64
	}{
		// An open array padded with whitespace keeps the JSON decoder
		// reading until the cap trips; /v1/import reads the raw bytes.
		{"/v1/ingest", `{"updates":[`, maxIngestBody},
		{"/v1/query", `{"queries":[`, maxQueryBody},
		{"/v1/import", "", maxImportBody},
	} {
		body := io.MultiReader(strings.NewReader(tc.open), io.LimitReader(spaces{}, tc.limit+1))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, body))
		var envelope struct {
			Error apiError `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
			t.Fatalf("%s: body %q: %v", tc.path, rec.Body.String(), err)
		}
		if rec.Code != http.StatusRequestEntityTooLarge || envelope.Error.Code != "payload_too_large" {
			t.Errorf("%s: status %d error %+v, want 413 payload_too_large", tc.path, rec.Code, envelope.Error)
		}
	}
	if v := eng.Version(); v != 0 {
		t.Fatalf("oversized requests mutated the engine (version %d)", v)
	}
}
