package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/streamclient"
)

// querySpec mirrors one /v1/query entry (the server's type is unexported).
type querySpec struct {
	Statistic string   `json:"statistic,omitempty"`
	Func      string   `json:"func,omitempty"`
	P         float64  `json:"p,omitempty"`
	Estimator string   `json:"estimator,omitempty"`
	IDs       []uint64 `json:"ids,omitempty"`
}

// dashSpecs is the "dash" request: the four statistics a dashboard polls,
// answered from one snapshot. Its first query is also what the SSE
// subscriber registers, so pushes and dash share the per-version memo.
var dashSpecs = []querySpec{
	{Statistic: "sum", Func: "rg", P: 1, Estimator: "lstar"},
	{Statistic: "sum", Func: "rg", P: 2, Estimator: "lstar"},
	{Statistic: "sum", Func: "rgplus", P: 1, Estimator: "lstar"},
	{Statistic: "jaccard", Estimator: "lstar"},
}

const subscribeQuery = "func=rg&p=1&estimator=lstar"

// selEstimators is the estimator cycle of the "sel" request. The order:
// family is absent on purpose: it rejects weights off its declared ladder,
// and cumulative weights are never on one (see README "known limits").
var selEstimators = []string{"lstar", "ht"}

func queryBody(specs []querySpec) []byte {
	b, err := json.Marshal(map[string]any{"queries": specs})
	if err != nil {
		panic(err) // static shapes; cannot fail
	}
	return b
}

// selSpec is request i of the "sel" class: one sum over selN ids from a
// window sliding over the popularity head, so every request is a new memo
// key (memo miss) against an unchanged snapshot (snapshot hit).
func selSpec(heavy []uint64, i, selN int, estimator string) querySpec {
	ids := make([]uint64, selN)
	start := (i * 61) % len(heavy) // 61 is coprime to the head size: no window repeats within a run
	for j := range ids {
		ids[j] = heavy[(start+j)%len(heavy)]
	}
	return querySpec{Statistic: "sum", Func: "rg", P: 1, Estimator: estimator, IDs: ids}
}

// ustarSpec is request i of the "ustar" class: one id from each of n
// equal slices of the popularity head, so every request mixes sampled
// (cheap) and unsampled (dear) items instead of walking from one kind to
// the other as i grows.
func ustarSpec(heavy []uint64, i, n int) querySpec {
	ids := make([]uint64, n)
	for j := range ids {
		ids[j] = heavy[(i+j*len(heavy)/n)%len(heavy)]
	}
	return querySpec{Statistic: "sum", Func: "rg", P: 1, Estimator: "ustar", IDs: ids}
}

// queryResult is the part of a /v1/query result the oracle compares.
type queryResult struct {
	Statistic    string          `json:"statistic"`
	Estimate     *float64        `json:"estimate"`
	Items        int             `json:"items"`
	SecondMoment *float64        `json:"second_moment"`
	MaxItem      *float64        `json:"max_item_estimate"`
	Error        json.RawMessage `json:"error"`
}

type queryResponse struct {
	Version uint64        `json:"version"`
	Results []queryResult `json:"results"`
}

// api is the load generator's HTTP side: one shared keep-alive transport,
// so a run holds at most one connection per concurrently active client.
type api struct {
	hc *http.Client
}

func newAPI() *api {
	return &api{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     time.Minute,
	}}}
}

func (a *api) close() { a.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 200 answer; any other
// status is an error carrying the server's message.
func (a *api) do(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// query posts a /v1/query batch and returns the raw body. A batch answers
// 200 even when one of its queries failed, carrying that query's error
// object in its result; no successful result has an "error" key, so a byte
// search keeps the load loops from timing failures as fast answers without
// decoding every response (the oracle decodes the ones it compares).
func (a *api) query(ctx context.Context, base string, body []byte) ([]byte, error) {
	out, err := a.do(ctx, http.MethodPost, base+"/v1/query", body)
	if err == nil && bytes.Contains(out, []byte(`"error":`)) {
		return nil, fmt.Errorf("POST %s/v1/query: a query of the batch failed: %s", base, out)
	}
	return out, err
}

func decodeQuery(raw []byte) (queryResponse, error) {
	var qr queryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return qr, fmt.Errorf("decoding /v1/query response: %w", err)
	}
	for i, r := range qr.Results {
		if len(r.Error) > 0 && string(r.Error) != "null" {
			return qr, fmt.Errorf("query %d failed: %s", i, r.Error)
		}
	}
	return qr, nil
}

// stats is the part of GET /v1/stats the bench reads.
type stats struct {
	Version uint64 `json:"version"`
	Engine  struct {
		Snapshot engine.SnapshotStats `json:"snapshot"`
	} `json:"engine"`
	Wire struct {
		PushedEvents    uint64 `json:"pushed_events"`
		CoalescedEvents uint64 `json:"coalesced_events"`
		DroppedEvents   uint64 `json:"dropped_events"`
	} `json:"wire"`
	Cluster *struct {
		Stats struct {
			Syncs         uint64 `json:"syncs"`
			Fetches       uint64 `json:"fetches"`
			NotModified   uint64 `json:"not_modified"`
			StateBytes    uint64 `json:"state_bytes"`
			RoutedUpdates uint64 `json:"routed_updates"`
		} `json:"stats"`
	} `json:"cluster"`
}

func (a *api) stats(ctx context.Context, base string) (stats, error) {
	var st stats
	raw, err := a.do(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st, nil
}

// sendStream is one ingest request as a writer sees it: open POST
// /v1/stream, send the frames, close, and read the ack summary. The ack
// must account for every update, or the oracle's totals would be ahead of
// the daemon.
func (a *api) sendStream(ctx context.Context, base string, frames [][]engine.Update) error {
	s, err := streamclient.OpenStream(ctx, a.hc, base)
	if err != nil {
		return err
	}
	want := 0
	for _, f := range frames {
		want += len(f)
		if err := s.Send(f); err != nil {
			break // the server closed the stream; Close has the cause
		}
	}
	sum, err := s.Close()
	if err != nil {
		return err
	}
	if sum.Updates != want || sum.Draining {
		return fmt.Errorf("stream acked %d of %d updates (draining=%v)", sum.Updates, want, sum.Draining)
	}
	return nil
}
