package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/estreg"
	"repro/internal/funcs"
	"repro/internal/sampling"
)

func newTestServer(t *testing.T) (*httptest.Server, sampling.SeedHash) {
	t.Helper()
	hash := sampling.NewSeedHash(7)
	eng, err := engine.New(engine.Config{Instances: 2, K: 8, Shards: 4, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	return ts, hash
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

// queryOne answers one query spec through POST /v1/query and returns the
// response body with its single result. The request must succeed as a
// whole; a failing query shows in the result's "error" (see queryErrCode).
func queryOne(t *testing.T, base string, spec map[string]any) (body, result map[string]any) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/query", map[string]any{"queries": []map[string]any{spec}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %v: status %d body %v", spec, resp.StatusCode, body)
	}
	results, _ := body["results"].([]any)
	if len(results) != 1 {
		t.Fatalf("query %v: want one result, got %v", spec, body)
	}
	return body, results[0].(map[string]any)
}

// queryErrCode returns a result's per-query error code ("" = it succeeded).
func queryErrCode(result map[string]any) string {
	e, _ := result["error"].(map[string]any)
	code, _ := e["code"].(string)
	return code
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	return m
}

// ingestExample1 streams the paper's Example 1 first two instances via the
// HTTP API, keyed by item id.
func ingestExample1(t *testing.T, url string) dataset.Dataset {
	t.Helper()
	full := dataset.Example1()
	d, err := dataset.New(nil, full.W[:2])
	if err != nil {
		t.Fatal(err)
	}
	var updates []map[string]any
	for i := 0; i < d.R(); i++ {
		for k := 0; k < d.N(); k++ {
			if d.W[i][k] > 0 {
				updates = append(updates, map[string]any{"instance": i, "id": k, "weight": d.W[i][k]})
			}
		}
	}
	resp, body := postJSON(t, url+"/v1/ingest", map[string]any{"updates": updates})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %v", resp.StatusCode, body)
	}
	if got := int(body["ingested"].(float64)); got != len(updates) {
		t.Fatalf("ingested %d, want %d", got, len(updates))
	}
	return d
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: status %d body %v", resp.StatusCode, body)
	}
}

func TestIngestAndEstimateSum(t *testing.T) {
	ts, hash := newTestServer(t)
	d := ingestExample1(t, ts.URL)

	batch, err := dataset.SampleBottomK(d, 8, hash)
	if err != nil {
		t.Fatal(err)
	}
	f, err := funcs.NewRG(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, est := range []struct {
		name string
		kind dataset.EstimatorKind
	}{{"lstar", dataset.KindLStar}, {"ustar", dataset.KindUStar}, {"ht", dataset.KindHT}} {
		_, res := queryOne(t, ts.URL, map[string]any{"func": "rg", "p": 1, "estimator": est.name})
		if code := queryErrCode(res); code != "" {
			t.Fatalf("%s: query failed: %v", est.name, res)
		}
		want, err := batch.EstimateSum(f, est.kind, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res["estimate"].(float64); got != want {
			t.Errorf("%s estimate = %v, want %v (batch)", est.name, got, want)
		}
	}
}

func TestEstimateSumFuncs(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestExample1(t, ts.URL)
	for _, query := range []map[string]any{
		{"func": "rgplus", "p": 2},
		{"func": "max"},
		{"func": "or"},
		{"func": "and"},
		{"func": "lincomb", "c": []float64{1, -1}, "p": 1},
	} {
		_, res := queryOne(t, ts.URL, query)
		if code := queryErrCode(res); code != "" {
			t.Errorf("%v: query failed: %v", query, res)
			continue
		}
		if est := res["estimate"].(float64); est < 0 || math.IsNaN(est) {
			t.Errorf("%v: estimate %v not nonnegative", query, est)
		}
	}
}

func TestEstimateJaccard(t *testing.T) {
	ts, hash := newTestServer(t)
	d := ingestExample1(t, ts.URL)
	_, res := queryOne(t, ts.URL, map[string]any{"statistic": "jaccard"})
	if code := queryErrCode(res); code != "" {
		t.Fatalf("jaccard: query failed: %v", res)
	}
	batch, err := dataset.SampleBottomK(d, 8, hash)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res["estimate"].(float64), funcs.JaccardEstimate(batch.Outcomes); got != want {
		t.Errorf("jaccard = %v, want %v (batch)", got, want)
	}
}

func TestStringKeysCoordinate(t *testing.T) {
	// Two servers with the same salt must agree on estimates when fed the
	// same named items, even via different key spellings of the batch.
	ts, _ := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/ingest", map[string]any{
		"updates": []map[string]any{
			{"instance": 0, "key": "alpha", "weight": 0.9},
			{"instance": 1, "key": "alpha", "weight": 0.4},
			{"instance": 0, "key": "beta", "weight": 0.2},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %v", resp.StatusCode, body)
	}
	resp, body = getJSON(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d: %v", resp.StatusCode, body)
	}
	eng := body["engine"].(map[string]any)
	if got := int(eng["keys"].(float64)); got != 2 {
		t.Errorf("engine keys = %d, want 2", got)
	}
	if got := int(eng["active_entries"].(float64)); got != 3 {
		t.Errorf("active entries = %d, want 3", got)
	}
}

func TestIngestKeyHandling(t *testing.T) {
	ts, _ := newTestServer(t)
	// An explicit empty-string key is a real key (StringKey("")), distinct
	// from raw id 0; zero weights are accepted no-ops reported as skipped.
	resp, body := postJSON(t, ts.URL+"/v1/ingest", map[string]any{
		"updates": []map[string]any{
			{"instance": 0, "key": "", "weight": 1.0},
			{"instance": 0, "id": 0, "weight": 2.0},
			{"instance": 0, "key": "zeroed", "weight": 0.0},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %v", resp.StatusCode, body)
	}
	if got := int(body["ingested"].(float64)); got != 2 {
		t.Errorf("ingested = %d, want 2", got)
	}
	if got := int(body["skipped"].(float64)); got != 1 {
		t.Errorf("skipped = %d, want 1", got)
	}
	resp, body = getJSON(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d: %v", resp.StatusCode, body)
	}
	eng := body["engine"].(map[string]any)
	if got := int(eng["keys"].(float64)); got != 2 {
		t.Errorf("engine keys = %d, want 2 (empty-string key distinct from id 0)", got)
	}
	if got := int(eng["ingests"].(float64)); got != 2 {
		t.Errorf("engine ingests = %d, want 2 (matches response's ingested)", got)
	}
}

func TestStatsCounters(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestExample1(t, ts.URL)
	queryOne(t, ts.URL, map[string]any{"statistic": "jaccard"})
	postJSON(t, ts.URL+"/v1/query", map[string]any{"queries": []any{}}) // one error
	getJSON(t, ts.URL+"/v1/export?bogus=1")                             // one error

	resp, body := getJSON(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d: %v", resp.StatusCode, body)
	}
	endpoints := body["endpoints"].(map[string]any)
	query := endpoints["POST /v1/query"].(map[string]any)
	if got := query["requests"].(float64); got != 2 {
		t.Errorf("query requests = %v, want 2", got)
	}
	if got := query["errors"].(float64); got != 1 {
		t.Errorf("query errors = %v, want 1", got)
	}
	export := endpoints["GET /v1/export"].(map[string]any)
	if got := export["errors"].(float64); got != 1 {
		t.Errorf("export errors = %v, want 1", got)
	}
	if up := body["uptime_seconds"].(float64); up < 0 {
		t.Errorf("uptime %v negative", up)
	}
}

func TestErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, tc := range []struct {
		name string
		do   func() (*http.Response, map[string]any)
		code int
	}{
		{"ingest bad json", func() (*http.Response, map[string]any) {
			resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader([]byte("{nope")))
			if err != nil {
				t.Fatal(err)
			}
			return resp, decodeBody(t, resp)
		}, http.StatusBadRequest},
		{"ingest unknown field", func() (*http.Response, map[string]any) {
			return postJSON(t, ts.URL+"/v1/ingest", map[string]any{"rows": []int{1}})
		}, http.StatusBadRequest},
		{"ingest empty batch", func() (*http.Response, map[string]any) {
			return postJSON(t, ts.URL+"/v1/ingest", map[string]any{"updates": []any{}})
		}, http.StatusBadRequest},
		{"ingest bad instance", func() (*http.Response, map[string]any) {
			return postJSON(t, ts.URL+"/v1/ingest", map[string]any{
				"updates": []map[string]any{{"instance": 9, "key": "x", "weight": 1}},
			})
		}, http.StatusBadRequest},
		{"ingest negative weight", func() (*http.Response, map[string]any) {
			return postJSON(t, ts.URL+"/v1/ingest", map[string]any{
				"updates": []map[string]any{{"instance": 0, "key": "x", "weight": -1}},
			})
		}, http.StatusBadRequest},
		{"sum bad p", func() (*http.Response, map[string]any) {
			return postJSON(t, ts.URL+"/v1/query", map[string]any{
				"queries": []map[string]any{{"func": "rg", "p": "zzz"}},
			})
		}, http.StatusBadRequest},
		{"sum lincomb bad c", func() (*http.Response, map[string]any) {
			return postJSON(t, ts.URL+"/v1/query", map[string]any{
				"queries": []map[string]any{{"func": "lincomb", "c": []any{1, "x"}}},
			})
		}, http.StatusBadRequest},
	} {
		resp, body := tc.do()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (body %v)", tc.name, resp.StatusCode, tc.code, body)
			continue
		}
		if _, ok := body["error"]; !ok {
			t.Errorf("%s: error body missing: %v", tc.name, body)
		}
	}

	// A well-formed request naming an unanswerable query fails that query,
	// not the batch: the result carries the structured error.
	for _, tc := range []struct {
		name string
		spec map[string]any
	}{
		{"sum unknown func", map[string]any{"func": "nope"}},
		{"sum unknown estimator", map[string]any{"estimator": "nope"}},
		{"sum lincomb missing c", map[string]any{"func": "lincomb"}},
		// lincomb with 3 coefficients on a 2-instance engine.
		{"sum arity mismatch", map[string]any{"func": "lincomb", "c": []float64{1, 2, 3}}},
	} {
		if _, res := queryOne(t, ts.URL, tc.spec); queryErrCode(res) != "bad_request" {
			t.Errorf("%s: want a bad_request result, got %v", tc.name, res)
		}
	}

	// Wrong methods hit the mux's method matching.
	resp, err := http.Get(ts.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/ingest status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/stats", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/stats status %d, want 405", resp.StatusCode)
	}
}

func TestNonFiniteEstimateIsAnError(t *testing.T) {
	// A sum of near-MaxFloat64 weights overflows to +Inf, which JSON
	// cannot carry; the query must fail with an "internal" error, not
	// leave the encoder to emit an empty 200.
	ts, _ := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/ingest", map[string]any{
		"updates": []map[string]any{
			{"instance": 0, "id": 0, "weight": 1e308},
			{"instance": 0, "id": 1, "weight": 1e308},
			{"instance": 0, "id": 2, "weight": 1e308},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %v", resp.StatusCode, body)
	}
	if _, res := queryOne(t, ts.URL, map[string]any{"func": "max"}); queryErrCode(res) != "internal" {
		t.Fatalf("want an internal-error result, got %v", res)
	}
}

func TestRGPlusArityGuard(t *testing.T) {
	// rgplus needs exactly 2 instances; a 3-instance engine must reject it
	// with 400 rather than panic.
	hash := sampling.NewSeedHash(1)
	eng, err := engine.New(engine.Config{Instances: 3, K: 4, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng))
	defer ts.Close()
	if _, res := queryOne(t, ts.URL, map[string]any{"func": "rgplus"}); queryErrCode(res) != "bad_request" {
		t.Fatalf("want a bad_request result, got %v", res)
	}
}

func TestConcurrentTraffic(t *testing.T) {
	// Parallel ingest + query traffic must stay consistent (run with
	// -race in CI).
	ts, _ := newTestServer(t)
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for j := 0; j < 20; j++ {
				key := fmt.Sprintf("item-%d-%d", g, j%10)
				raw, _ := json.Marshal(map[string]any{
					"updates": []map[string]any{{"instance": g % 2, "key": key, "weight": float64(j + 1)}},
				})
				resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(raw))
				if err != nil {
					done <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- nil
		}(g)
		go func() {
			for j := 0; j < 10; j++ {
				resp, err := http.Post(ts.URL+"/v1/query", "application/json",
					bytes.NewReader([]byte(`{"queries":[{"statistic":"jaccard"}]}`)))
				if err != nil {
					done <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	resp, body := getJSON(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d: %v", resp.StatusCode, body)
	}
	eng := body["engine"].(map[string]any)
	if got := int(eng["keys"].(float64)); got != 40 {
		t.Errorf("engine keys = %d, want 40", got)
	}
}

// ---- /v1/query: batched multi-statistic queries over one snapshot ----

// ladderDataset builds a deterministic 2-instance weight matrix whose
// positive values lie on the {0.25, 0.5, 1} ladder, so every registered
// estimator — including the discrete order-optimal family — applies.
func ladderDataset(t *testing.T, n int) dataset.Dataset {
	t.Helper()
	ladder := []float64{0.25, 0.5, 1, 0} // index 3 = absent entry
	w := make([][]float64, 2)
	for i := range w {
		w[i] = make([]float64, n)
		for k := 0; k < n; k++ {
			w[i][k] = ladder[(k+3*i)%4]
		}
	}
	d, err := dataset.New(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func ingestDataset(t *testing.T, url string, d dataset.Dataset) {
	t.Helper()
	var updates []map[string]any
	for i := 0; i < d.R(); i++ {
		for k := 0; k < d.N(); k++ {
			if d.W[i][k] > 0 {
				updates = append(updates, map[string]any{"instance": i, "id": k, "weight": d.W[i][k]})
			}
		}
	}
	resp, body := postJSON(t, url+"/v1/ingest", map[string]any{"updates": updates})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %v", resp.StatusCode, body)
	}
}

// TestQueryRoundTripsAllEstimators is the acceptance check for the
// estimator registry: every registered estimator name round-trips through
// POST /v1/query and matches its batch counterpart bit-for-bit on the
// same snapshot (the engine's outcomes are bit-identical to
// dataset.SampleBottomK, and estreg.Sum accumulates like the batch
// pipeline, so serving must introduce no drift at all).
func TestQueryRoundTripsAllEstimators(t *testing.T) {
	ts, hash := newTestServer(t)
	d := ladderDataset(t, 40)
	ingestDataset(t, ts.URL, d)
	batch, err := dataset.SampleBottomK(d, 8, hash)
	if err != nil {
		t.Fatal(err)
	}
	f, err := funcs.NewRG(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := estreg.Default()
	names := []string{
		"lstar",
		"ustar",
		"ht",
		"voptimal",
		"order:vals=0.25,0.5,1;by=asc",
		"order:vals=0.25,0.5,1;by=desc",
		"order:vals=0.25,0.5,1;by=near:0.5",
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			est, meta, err := reg.Build(name, f, d.R())
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := estreg.Sum(est, batch.Outcomes, nil)
			resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
				"queries": []map[string]any{{"func": "rg", "p": 1, "estimator": name}},
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %v", resp.StatusCode, body)
			}
			res := body["results"].([]any)[0].(map[string]any)
			if wantErr != nil {
				if _, ok := res["error"]; !ok {
					t.Fatalf("batch errored (%v) but serving succeeded: %v", wantErr, res)
				}
				return
			}
			if e, ok := res["error"]; ok {
				t.Fatalf("query error: %v", e)
			}
			if got := res["estimate"].(float64); got != want.Estimate {
				t.Errorf("estimate = %v, want %v (batch)", got, want.Estimate)
			}
			if got := res["second_moment"].(float64); got != want.SecondMoment {
				t.Errorf("second_moment = %v, want %v", got, want.SecondMoment)
			}
			if got := int(res["items"].(float64)); got != want.Items {
				t.Errorf("items = %d, want %d", got, want.Items)
			}
			gotMeta := res["meta"].(map[string]any)
			if gotMeta["estimator"] != meta.Estimator {
				t.Errorf("meta.estimator = %v, want %v", gotMeta["estimator"], meta.Estimator)
			}
			snap := body["snapshot"].(map[string]any)
			if got := int(snap["total_entries"].(float64)); got != batch.TotalEntries {
				t.Errorf("snapshot total_entries = %d, want %d", got, batch.TotalEntries)
			}
		})
	}
}

// TestQueryBatchSharedSnapshot exercises one batch mixing statistics,
// estimators and selections: results must agree with per-item batch
// estimates resolved through the same snapshot.
func TestQueryBatchSharedSnapshot(t *testing.T) {
	ts, hash := newTestServer(t)
	d := ingestExample1(t, ts.URL)
	batch, err := dataset.SampleBottomK(d, 8, hash)
	if err != nil {
		t.Fatal(err)
	}
	f, err := funcs.NewRG(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := estreg.Default()
	lstar, _, err := reg.Build("lstar", f, d.R())
	if err != nil {
		t.Fatal(err)
	}
	wantAll, err := estreg.Sum(lstar, batch.Outcomes, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSel, err := estreg.Sum(lstar, batch.Outcomes, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"queries": []map[string]any{
			{"statistic": "sum", "func": "rg", "p": 1, "estimator": "lstar"},
			{"statistic": "sum", "func": "rg", "p": 1, "estimator": "lstar", "ids": []int{1, 3}},
			{"statistic": "jaccard"},
			{"estimator": "nope"},                  // per-query failure
			{"ids": []int{999}},                    // unknown id
			{"statistic": "jaccard", "func": "rg"}, // jaccard takes no func
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	results := body["results"].([]any)
	if len(results) != 6 {
		t.Fatalf("got %d results, want 6", len(results))
	}
	r0 := results[0].(map[string]any)
	if got := r0["estimate"].(float64); got != wantAll.Estimate {
		t.Errorf("full sum = %v, want %v", got, wantAll.Estimate)
	}
	r1 := results[1].(map[string]any)
	if got := r1["estimate"].(float64); got != wantSel.Estimate {
		t.Errorf("selected sum = %v, want %v", got, wantSel.Estimate)
	}
	if got := int(r1["items"].(float64)); got != 2 {
		t.Errorf("selected items = %d, want 2", got)
	}
	r2 := results[2].(map[string]any)
	if got, want := r2["estimate"].(float64), funcs.JaccardEstimate(batch.Outcomes); got != want {
		t.Errorf("jaccard = %v, want %v", got, want)
	}
	for i := 3; i < 6; i++ {
		res := results[i].(map[string]any)
		errBody, ok := res["error"].(map[string]any)
		if !ok {
			t.Errorf("result %d should carry an error: %v", i, res)
			continue
		}
		if errBody["code"] != "bad_request" || errBody["message"] == "" {
			t.Errorf("result %d error = %v", i, errBody)
		}
	}
}

// TestQuerySelectionByStringKey: string keys resolve through the same
// hash as ingest, so a key-addressed estimate equals the id-addressed one.
func TestQuerySelectionByStringKey(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/ingest", map[string]any{
		"updates": []map[string]any{
			{"instance": 0, "key": "alpha", "weight": 0.9},
			{"instance": 1, "key": "alpha", "weight": 0.4},
			{"instance": 0, "key": "beta", "weight": 0.2},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %v", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"queries": []map[string]any{
			{"func": "rg", "keys": []string{"alpha"}},
			{"func": "rg", "keys": []string{"gamma"}}, // never ingested
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	results := body["results"].([]any)
	r0 := results[0].(map[string]any)
	if got := int(r0["items"].(float64)); got != 1 {
		t.Errorf("items = %d, want 1", got)
	}
	if est := r0["estimate"].(float64); est < 0 || math.IsNaN(est) {
		t.Errorf("estimate %v not nonnegative", est)
	}
	if _, ok := results[1].(map[string]any)["error"]; !ok {
		t.Errorf("unknown key should fail per-query: %v", results[1])
	}
}

func TestQueryRequestErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, tc := range []struct {
		name string
		body string
	}{
		{"malformed", `{nope`},
		{"unknown top-level field", `{"batch": []}`},
		{"unknown query field", `{"queries": [{"estimtor": "lstar"}]}`},
		{"empty batch", `{"queries": []}`},
		{"trailing data", `{"queries": [{}]} {}`},
	} {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		body := decodeBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %v)", tc.name, resp.StatusCode, body)
			continue
		}
		errBody, ok := body["error"].(map[string]any)
		if !ok || errBody["code"] != "bad_request" {
			t.Errorf("%s: structured error missing: %v", tc.name, body)
		}
	}
	// Oversized batches are rejected up front.
	queries := make([]map[string]any, 65)
	for i := range queries {
		queries[i] = map[string]any{"func": "rg"}
	}
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"queries": queries})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d (body %v)", resp.StatusCode, body)
	}
}

// TestUnknownQueryParamsRejected: a typo like "estimtor" must be a 400
// with a structured error, never a silently applied default.
func TestUnknownQueryParamsRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, path := range []string{
		"/v1/subscribe?estimtor=lstar",
		"/v1/subscribe?func=rg&bogus=1",
		"/v1/export?format=json",
		"/v1/stats?verbose=1",
	} {
		resp, body := getJSON(t, ts.URL+path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %v)", path, resp.StatusCode, body)
			continue
		}
		errBody, ok := body["error"].(map[string]any)
		if !ok {
			t.Errorf("%s: structured error missing: %v", path, body)
			continue
		}
		if errBody["code"] != "bad_request" || errBody["message"] == "" {
			t.Errorf("%s: error = %v", path, errBody)
		}
	}
}

// TestHealthzIgnoresParams: liveness probes may append cache-busting
// parameters; strictness there would flip orchestrator health checks.
func TestHealthzIgnoresParams(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := getJSON(t, ts.URL+"/healthz?ts=123&probe=lb")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz with params: status %d body %v", resp.StatusCode, body)
	}
}

// TestQuerySelectionDeduplicates: a key named twice, or once as a string
// and once as its raw id, counts once — selections are sets.
func TestQuerySelectionDeduplicates(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/ingest", map[string]any{
		"updates": []map[string]any{
			{"instance": 0, "key": "alpha", "weight": 0.9},
			{"instance": 1, "key": "alpha", "weight": 0.4},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %v", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"queries": []map[string]any{
			{"func": "rg", "keys": []string{"alpha"}},
			{"func": "rg", "keys": []string{"alpha", "alpha"},
				"ids": []uint64{sampling.StringKey("alpha")}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %v", resp.StatusCode, body)
	}
	results := body["results"].([]any)
	once := results[0].(map[string]any)
	thrice := results[1].(map[string]any)
	if got := int(thrice["items"].(float64)); got != 1 {
		t.Errorf("deduplicated items = %d, want 1", got)
	}
	if got, want := thrice["estimate"].(float64), once["estimate"].(float64); got != want {
		t.Errorf("deduplicated estimate %v != single-selector estimate %v", got, want)
	}
}

// TestQueryIsRegistryBacked: /v1/query accepts every registry name —
// parameterized order specs included — for sums and for jaccard, and
// reports the resolved name back.
func TestQueryIsRegistryBacked(t *testing.T) {
	ts, _ := newTestServer(t)
	d := ladderDataset(t, 24)
	ingestDataset(t, ts.URL, d)
	name := "order:vals=0.25,0.5,1;by=desc"
	_, res := queryOne(t, ts.URL, map[string]any{"func": "rg", "p": 1, "estimator": name})
	if code := queryErrCode(res); code != "" {
		t.Fatalf("order query failed: %v", res)
	}
	if res["estimator"] != name {
		t.Errorf("estimator = %v, want %v", res["estimator"], name)
	}
	// Jaccard with a non-default estimator kind.
	_, res = queryOne(t, ts.URL, map[string]any{"statistic": "jaccard", "estimator": "ht"})
	if code := queryErrCode(res); code != "" {
		t.Fatalf("jaccard ht failed: %v", res)
	}
	if jac := res["estimate"].(float64); jac < 0 || jac > 1+1e-9 || math.IsNaN(jac) {
		t.Errorf("jaccard ht = %v outside [0,1]", jac)
	}
}

// TestServerAllowlistAndDefault: NewWith wires a restricted registry and a
// different default estimator (the -estimators / -default-estimator
// flags of cmd/monestd).
func TestServerAllowlistAndDefault(t *testing.T) {
	hash := sampling.NewSeedHash(7)
	eng, err := engine.New(engine.Config{Instances: 2, K: 8, Shards: 4, Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	reg := estreg.Default()
	if err := reg.Allow([]string{"ustar", "ht"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWith(eng, Config{Registry: reg, DefaultEstimator: "ustar"}))
	defer ts.Close()
	ingestDataset(t, ts.URL, ladderDataset(t, 12))

	// The default estimator is applied when none is named.
	_, res := queryOne(t, ts.URL, map[string]any{"func": "rg"})
	if res["estimator"] != "ustar" {
		t.Errorf("default estimator = %v, want ustar (result %v)", res["estimator"], res)
	}
	// Disallowed names are rejected.
	if _, res := queryOne(t, ts.URL, map[string]any{"func": "rg", "estimator": "lstar"}); queryErrCode(res) != "bad_request" {
		t.Errorf("disallowed estimator: want a bad_request result, got %v", res)
	}
	// /v1/stats advertises the allowed estimators.
	resp, body := getJSON(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d: %v", resp.StatusCode, body)
	}
	names := body["estimators"].([]any)
	if len(names) != 2 || names[0] != "ht" || names[1] != "ustar" {
		t.Errorf("stats estimators = %v, want [ht ustar]", names)
	}
}

// TestServerDoesNotImportCluster pins the dependency direction: the
// cluster coordinator is one more SnapshotSource, Ingestor and
// ClusterReporter built on this package, so nothing here may import it.
func TestServerDoesNotImportCluster(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "repro/internal/cluster" {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), path)
			}
		}
	}
}
