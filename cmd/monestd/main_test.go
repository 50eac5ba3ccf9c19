package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/internal/store"
)

// freeAddr reserves a loopback port for the daemon under test.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func baseOpts(addr string) options {
	return options{
		addr:       addr,
		instances:  2,
		k:          8,
		shards:     4,
		salt:       1,
		defaultEst: "lstar",
		fsync:      "interval",
	}
}

// startDaemon runs the daemon until stop() is called; stop SIGTERMs the
// process (run installs a per-call signal context) and waits for a clean
// exit.
func startDaemon(t *testing.T, o options) (url string, stop func()) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run(o) }()
	url = "http://" + o.addr
	var err error
	for i := 0; i < 100; i++ {
		var resp *http.Response
		resp, err = http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("daemon never came up: %v", err)
	}
	return url, func() {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("daemon did not shut down after SIGTERM")
		}
	}
}

func TestRunServesAndShutsDownGracefully(t *testing.T) {
	url, stop := startDaemon(t, baseOpts(freeAddr(t)))

	body := `{"updates":[{"instance":0,"key":"alpha","weight":0.9},{"instance":1,"key":"alpha","weight":0.5}]}`
	resp, err := http.Post(url+"/v1/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Post(url+"/v1/query", "application/json", strings.NewReader(`{"queries":[{"func":"max"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var est struct {
		Results []struct {
			Estimate *float64 `json:"estimate"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(est.Results) != 1 || est.Results[0].Estimate == nil {
		t.Fatalf("query body %+v", est)
	}

	// SIGTERM must drain and exit cleanly.
	stop()
}

// export fetches the binary state artifact, which is deterministic for
// equal states — byte equality below means the sketch survived intact.
func export(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestKillAndRestartRecoversState is the acceptance test for the durable
// engine: ingest over HTTP, SIGTERM the daemon, boot a fresh one on the
// same data dir, and require the recovered /v1/export bytes to match the
// pre-shutdown ones exactly.
func TestKillAndRestartRecoversState(t *testing.T) {
	dir := t.TempDir()
	o := baseOpts(freeAddr(t))
	o.dataDir = dir
	o.checkpointIv = time.Hour // only the shutdown checkpoint
	url, stop := startDaemon(t, o)

	body := `{"updates":[
		{"instance":0,"key":"alpha","weight":0.9},{"instance":1,"key":"alpha","weight":0.5},
		{"instance":0,"key":"beta","weight":2.25},{"instance":1,"key":"gamma","weight":1.5}]}`
	resp, err := http.Post(url+"/v1/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp.Body.Close()
	want := export(t, url)
	stop()

	o2 := baseOpts(freeAddr(t))
	o2.dataDir = dir
	url2, stop2 := startDaemon(t, o2)
	defer stop2()
	if got := export(t, url2); !bytes.Equal(got, want) {
		t.Fatalf("recovered export differs: %d bytes vs %d bytes pre-shutdown", len(got), len(want))
	}

	// The restarted daemon keeps serving: checkpoint on demand works.
	resp, err = http.Post(url2+"/v1/checkpoint", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestReplayedTailCheckpointsAfterReady: a node that boots on a crashed
// data dir (a WAL tail, no checkpoint) is ready once the tail is
// replayed, and compacts that tail into a checkpoint beside serving, also
// with periodic checkpoints off. A restart then serves the same bytes.
func TestReplayedTailCheckpointsAfterReady(t *testing.T) {
	dir := t.TempDir()
	o := baseOpts(freeAddr(t))
	o.dataDir = dir
	eng, err := engine.New(engine.Config{Instances: o.instances, K: o.k, Shards: o.shards, Hash: sampling.NewSeedHash(o.salt)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Attach(eng, st); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	batch := make([]engine.Update, 500)
	for i := range batch {
		batch[i] = engine.Update{Instance: rng.Intn(o.instances), Key: uint64(rng.Intn(200)), Weight: rng.Float64() * 10}
	}
	if err := eng.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Store.Close flushes the WAL and, unlike Persistence.Close, writes no
	// checkpoint: the directory is what a crash leaves.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := store.EncodeState(eng.DumpState())
	ckpts := func() []string {
		names, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	if n := len(ckpts()); n != 0 {
		t.Fatalf("crash-style dir holds %d checkpoints, want 0", n)
	}

	o.checkpointIv = 0
	url, stop := startDaemon(t, o)
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz %d after recovery, want 200", resp.StatusCode)
	}
	for deadline := time.Now().Add(5 * time.Second); len(ckpts()) == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			stop()
			t.Fatal("no checkpoint of the replayed tail within 5s")
		}
	}
	if got := export(t, url); !bytes.Equal(got, want) {
		t.Fatalf("recovered export differs: %d bytes vs %d written", len(got), len(want))
	}
	stop()

	o2 := baseOpts(freeAddr(t))
	o2.dataDir = dir
	url2, stop2 := startDaemon(t, o2)
	defer stop2()
	if got := export(t, url2); !bytes.Equal(got, want) {
		t.Fatalf("export after restart differs: %d bytes vs %d written", len(got), len(want))
	}
}

func TestPprofFlagMountsProfiles(t *testing.T) {
	o := baseOpts(freeAddr(t))
	o.pprof = true
	url, stop := startDaemon(t, o)
	defer stop()

	resp, err := http.Get(url + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}

	// The API still routes beneath the pprof mux.
	resp, err = http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz behind pprof mux: %d", resp.StatusCode)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	mod := func(f func(*options)) options {
		o := baseOpts("127.0.0.1:0")
		f(&o)
		return o
	}
	cases := []struct {
		name string
		o    options
	}{
		{"zero instances", mod(func(o *options) { o.instances = 0 })},
		{"zero k", mod(func(o *options) { o.k = 0 })},
		{"unknown default estimator", mod(func(o *options) { o.defaultEst = "nope" })},
		{"unknown allowlist entry", mod(func(o *options) { o.allow = "lstar,bogus" })},
		{"default estimator outside allowlist", mod(func(o *options) { o.defaultEst = "ustar"; o.allow = "lstar,ht" })},
		{"blank-but-set allowlist", mod(func(o *options) { o.allow = " , " })},
		{"negative checkpoint interval", mod(func(o *options) { o.checkpointIv = -time.Second })},
		{"negative subscribe-debounce", mod(func(o *options) { o.subDebounce = -time.Second })},
		{"negative cluster-timeout", mod(func(o *options) { o.clusterTimeout = -time.Second })},
		{"negative cluster-poll", mod(func(o *options) { o.clusterPoll = -time.Second })},
		{"negative ingest-rate", mod(func(o *options) { o.ingestRate = -1 })},
		{"NaN ingest-rate", mod(func(o *options) { o.ingestRate = math.NaN() })},
		{"infinite ingest-rate", mod(func(o *options) { o.ingestRate = math.Inf(1) })},
		{"negative ingest-burst", mod(func(o *options) { o.ingestBurst = -1 })},
		{"NaN ingest-burst", mod(func(o *options) { o.ingestBurst = math.NaN() })},
		{"negatively infinite ingest-burst", mod(func(o *options) { o.ingestBurst = math.Inf(-1) })},
		{"negative ingest-inflight", mod(func(o *options) { o.ingestInflight = -1 })},
		{"bad fsync policy", mod(func(o *options) { o.fsync = "sometimes" })},
		{"data dir under a regular file", mod(func(o *options) { o.dataDir = filepath.Join(notADir, "state") })},
	}
	for _, tc := range cases {
		if err := run(tc.o); err == nil {
			t.Errorf("%s should fail", tc.name)
		}
	}
}

func TestRunRejectsBusyAddress(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	o := baseOpts(l.Addr().String())
	if err := run(o); err == nil {
		t.Error("busy address should fail")
	}
}
