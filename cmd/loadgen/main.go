// Command loadgen verifies a running monestd through the streaming wire:
// it holds SSE subscribers on GET /v1/subscribe, streams synthetic updates
// into POST /v1/stream over idempotency-keyed binary connections, and
// asserts that the pushed estimate equals what POST /v1/query answers at
// the same engine version. The e2e and chaos suites run it; load numbers
// come from `go run ./bench`.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8080 [-updates 100000] [-batch 256]
//	        [-streams 2] [-subscribers 4] [-fault-profile "reset=0.01,seed=1"]
//
// Updates derive from their index and spread over the daemon's instance
// count; -updates 0 verifies what the daemon already holds. -fault-profile
// injects internal/fault transport faults into every request; streams
// replay under their keys, so the run stays exact.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/streamclient"
)

const (
	// subscribeQuery and queryBody are the same estimate in the two
	// spellings: the SSE subscription's URL parameters and POST /v1/query.
	subscribeQuery = "func=rg&p=1&estimator=lstar"
	queryBody      = `{"queries":[{"func":"rg","p":1,"estimator":"lstar"}]}`
	// timeout is the whole run's deadline.
	timeout = 30 * time.Second
)

type options struct {
	addr         string
	updates      int
	batch        int
	streams      int
	subscribers  int
	faultProfile string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "http://127.0.0.1:8080", "monestd base URL")
	flag.IntVar(&o.updates, "updates", 100000, "total updates to stream")
	flag.IntVar(&o.batch, "batch", 256, "updates per binary frame")
	flag.IntVar(&o.streams, "streams", 2, "concurrent /v1/stream connections")
	flag.IntVar(&o.subscribers, "subscribers", 4, "concurrent /v1/subscribe connections (at least 1)")
	flag.StringVar(&o.faultProfile, "fault-profile", "", "internal/fault transport profile, e.g. \"latency=1ms,reset=0.01,drop-response=0.005,seed=1\"")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// synthUpdate is the deterministic update for global index i: a splitmix64
// of the index picks the key so repeated runs are reproducible and the key
// space is well spread across shards.
func synthUpdate(i, instances int) engine.Update {
	z := uint64(i)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return engine.Update{Instance: i % instances, Key: z ^ (z >> 31), Weight: float64(i%97) + 0.5}
}

func run(o options) error {
	if o.updates < 0 || o.batch <= 0 || o.streams <= 0 || o.subscribers <= 0 {
		return fmt.Errorf("-batch, -streams, -subscribers must be positive and -updates nonnegative")
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	base := strings.TrimSuffix(o.addr, "/")
	client := &http.Client{}
	if o.faultProfile != "" {
		prof, err := fault.ParseProfile(o.faultProfile)
		if err != nil {
			return fmt.Errorf("-fault-profile: %w", err)
		}
		ft := fault.NewTransport(prof, nil)
		client.Transport = ft
		defer func() {
			fs := ft.Stats()
			fmt.Printf("injected faults: %d requests, %d resets, %d dropped responses, %d cut bodies\n",
				fs.Requests, fs.Resets, fs.Dropped, fs.Cut)
		}()
	}

	// Subscribers go up first so every push from the ingest run is theirs
	// to observe; the server buffers pushes drop-oldest, so the freshest
	// one is always there to read.
	subs := make([]*streamclient.Subscription, o.subscribers)
	for i := range subs {
		var err error
		if subs[i], err = retry(ctx, func() (*streamclient.Subscription, error) {
			return streamclient.Subscribe(ctx, client, base, subscribeQuery)
		}); err != nil {
			return fmt.Errorf("subscriber %d: %w", i, err)
		}
		defer subs[i].Close()
	}

	if o.updates > 0 {
		if err := ingest(ctx, client, base, o); err != nil {
			return err
		}
	}

	// All ingest is acknowledged, so the daemon's version is final. Query
	// it, then read each subscriber up to that version and demand
	// structurally equal results. A /v1/query answer has a push's shape.
	q, err := retry(ctx, func() (streamclient.Push, error) {
		return fetch[streamclient.Push](ctx, client, http.MethodPost, base+"/v1/query", queryBody)
	})
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	degradedPushes := 0
	for i, sub := range subs {
		var p streamclient.Push
		for {
			if p, err = sub.NextPush(); err != nil {
				return fmt.Errorf("subscriber %d never saw version %d: %w", i, q.Version, err)
			}
			degradedPushes += degraded(p.Degraded)
			if p.Version >= q.Version {
				break
			}
		}
		switch {
		case p.Version != q.Version:
			// The daemon mutated after our query (another writer?): refuse
			// to compare across versions rather than report a false pass.
			return fmt.Errorf("subscriber %d is at version %d, query answered %d — is another writer active?",
				i, p.Version, q.Version)
		case !jsonEqual(p.Results, q.Results):
			return fmt.Errorf("subscriber %d: push %s != query %s", i, p.Results, q.Results)
		}
	}
	fmt.Printf("degraded reads: %d queries, %d pushes carried a degraded block\n", degraded(q.Degraded), degradedPushes)
	fmt.Printf("verified: pushed estimates equal POST /v1/query at version %d\n", q.Version)
	return nil
}

// ingest fans the update range over o.streams connections. Each is one
// idempotency-keyed Pump, so a 429 or an injected transport fault replays
// under the same key and every update still lands exactly once.
func ingest(ctx context.Context, client *http.Client, base string, o options) error {
	type stats struct{ Engine struct{ Instances int } } // JSON keys match case-insensitively
	st, err := retry(ctx, func() (stats, error) {
		return fetch[stats](ctx, client, http.MethodGet, base+"/v1/stats", "")
	})
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	instances := st.Engine.Instances
	if instances <= 0 {
		return fmt.Errorf("/v1/stats reports %d instances", instances)
	}
	per := (o.updates + o.streams - 1) / o.streams
	nonce := time.Now().UnixNano()
	errs := make([]error, o.streams)
	var wg sync.WaitGroup
	for s := 0; s*per < o.updates; s++ {
		lo, hi := s*per, min((s+1)*per, o.updates)
		key := fmt.Sprintf("loadgen-%d-%d", nonce, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = streamclient.Pump(ctx, client, base, key, func(frame int) ([]engine.Update, bool) {
				flo := lo + frame*o.batch
				batch := make([]engine.Update, 0, o.batch)
				for i := flo; i < min(flo+o.batch, hi); i++ {
					batch = append(batch, synthUpdate(i, instances))
				}
				return batch, flo < hi
			})
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// retry calls f until it succeeds, absorbing transient (injected or real)
// transport failures with a short backoff.
func retry[T any](ctx context.Context, f func() (T, error)) (T, error) {
	v, err := f()
	for attempt := 1; err != nil && attempt < 8; attempt++ {
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return v, err
		}
		v, err = f()
	}
	return v, err
}

// fetch sends one request and decodes a 200 JSON answer.
func fetch[T any](ctx context.Context, client *http.Client, method, url, body string) (T, error) {
	var out T
	req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
	if err != nil {
		return out, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// degraded is 1 when a response carried a cluster "degraded" block, else 0.
func degraded(raw json.RawMessage) int {
	if len(raw) > 0 && string(raw) != "null" {
		return 1
	}
	return 0
}

// jsonEqual reports whether a and b encode the same JSON value (key order
// and whitespace insensitive).
func jsonEqual(a, b any) bool {
	var av, bv any
	ab, _ := json.Marshal(a) // a failed Marshal leaves nil, which Unmarshal rejects
	bb, _ := json.Marshal(b)
	return json.Unmarshal(ab, &av) == nil && json.Unmarshal(bb, &bv) == nil && reflect.DeepEqual(av, bv)
}
