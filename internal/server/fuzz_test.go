package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/sampling"
)

// The JSON request bodies are the API's widest attack surface: /v1/query
// is the only query door and /v1/ingest the only JSON write door, so
// whatever bytes arrive there must come back as a well-formed JSON
// response that is never a 5xx — and never a panic.

// fuzzServer is a small loaded server; the ladder weights keep the
// discrete order estimators applicable.
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	eng, err := engine.New(engine.Config{Instances: 2, K: 4, Shards: 2, Hash: sampling.NewSeedHash(7)})
	if err != nil {
		f.Fatal(err)
	}
	ladder := []float64{0.25, 0.5, 1}
	for k := 0; k < 12; k++ {
		for i := 0; i < 2; i++ {
			if err := eng.Ingest(i, uint64(k), ladder[(k+i)%3]); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := eng.Ingest(0, sampling.StringKey("alpha"), 0.5); err != nil {
		f.Fatal(err)
	}
	return New(eng)
}

// fuzzPost drives one body through the handler and checks the response
// contract every body must meet.
func fuzzPost(t *testing.T, srv *Server, path string, body []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code >= 500 {
		t.Fatalf("POST %s %q: status %d body %s", path, body, rec.Code, rec.Body.String())
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("POST %s %q: response is not JSON: %q", path, body, rec.Body.String())
	}
}

func FuzzQueryRequest(f *testing.F) {
	for _, seed := range []string{
		`{"queries":[{"statistic":"sum","func":"rg","p":1,"estimator":"lstar"}]}`,
		`{"queries":[{"statistic":"jaccard","estimator":"ht"},{"func":"max","keys":["alpha"]}]}`,
		`{"queries":[{"func":"lincomb","c":[1,-1],"p":2,"ids":[1,3,3]}]}`,
		`{"queries":[{"func":"and","estimator":"order:vals=0.25,0.5,1;by=desc"}]}`,
		`{"queries":[{"func":"rgplus","p":0.5,"estimator":"ustar","ids":[0]}]}`,
		`{"queries":[{"func":"rg","p":-1},{"func":"rg","p":1e308},{"estimator":"order:vals="}]}`,
		`{"queries":[{"statistic":"jaccard","func":"rg"},{"keys":["never"]},{"estimtor":"x"}]}`,
		`{"queries":[]}`, `{"queries":null}`, `{"queries":[{}]} {}`, `[]`, `{`, ``,
	} {
		f.Add([]byte(seed))
	}
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, srv, "/v1/query", body)
	})
}

func FuzzIngestRequest(f *testing.F) {
	for _, seed := range []string{
		`{"updates":[{"instance":0,"key":"alpha","weight":0.9},{"instance":1,"id":7,"weight":2}]}`,
		`{"updates":[{"instance":0,"key":"","weight":0},{"instance":0,"id":18446744073709551615,"weight":1e308}]}`,
		`{"updates":[{"instance":9,"id":1,"weight":1}]}`,
		`{"updates":[{"instance":-1,"id":1,"weight":1}]}`,
		`{"updates":[{"instance":0,"id":1,"weight":-1}]}`,
		`{"updates":[{"instance":0,"id":-1,"weight":1}]}`,
		`{"updates":[{"instance":0,"id":1,"weight":1e999}]}`,
		`{"updates":[{"instance":0,"key":7,"weight":1}]}`,
		`{"updates":[]}`, `{"rows":[1]}`, `{"updates":[{}]} x`, `null`, `{`, ``,
	} {
		f.Add([]byte(seed))
	}
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, srv, "/v1/ingest", body)
	})
}
