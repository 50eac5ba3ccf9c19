//go:build e2e

package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// queryResults answers the standard verify query over POST /v1/query and
// returns the decoded results plus the raw degraded block (nil when the
// response carried none).
func queryResults(t *testing.T, base string) ([]any, json.RawMessage) {
	t.Helper()
	body := `{"queries":[{"statistic":"sum","func":"rg","p":1,"estimator":"lstar"}]}`
	resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query on %s: %d: %s", base, resp.StatusCode, raw)
	}
	var out struct {
		Results  []any           `json:"results"`
		Degraded json.RawMessage `json:"degraded"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("query on %s: %v in %s", base, err, raw)
	}
	if len(out.Degraded) > 0 && string(out.Degraded) != "null" {
		return out.Results, out.Degraded
	}
	return out.Results, nil
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestChaos is the failure-domain acceptance scenario: a 3-node cluster
// under -cluster-read=quorum=2 with one node behind a fault proxy.
//
//  1. Healthy phase: loadgen verifies THROUGH client-side injected
//     faults (latency, resets, dropped responses) — the idempotency-keyed
//     stream replays make the run exact anyway.
//  2. Partition phase: the proxied node is cut. The coordinator keeps
//     serving 200s whose bodies carry a degraded block naming the missing
//     node; a read-only loadgen run verifies against the reachable
//     subset; direct writes to a live node advance the served estimate
//     while still degraded; /readyz stays ready (the floor is met).
//  3. Heal phase: the partition lifts, the degraded label clears.
//  4. Bit-identity: a fresh strict coordinator over the same nodes
//     answers exactly the same results as the quorum coordinator that
//     lived through the partition.
func TestChaos(t *testing.T) {
	seed := os.Getenv("CHAOS_SEED")
	if seed == "" {
		seed = "1"
	}
	t.Logf("chaos seed: %s (override with CHAOS_SEED)", seed)
	monestd, loadgen := buildBinaries(t)

	nodeAddrs := make([]string, 3)
	nodeURLs := make([]string, 3)
	for i := range nodeAddrs {
		nodeAddrs[i] = freeAddr(t)
		startClusterDaemon(t, monestd, nodeAddrs[i],
			"-data-dir", t.TempDir(), "-checkpoint-interval", "0")
		nodeURLs[i] = "http://" + nodeAddrs[i]
	}

	// Node 1 is addressed through the fault proxy; the other two direct.
	proxy, err := fault.NewProxy(nodeAddrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	memberURLs := []string{nodeURLs[0], proxy.URL(), nodeURLs[2]}

	coordAddr := freeAddr(t)
	startClusterDaemon(t, monestd, coordAddr,
		"-cluster", strings.Join(memberURLs, ","),
		"-cluster-read", "quorum=2",
		"-cluster-poll", "50ms")
	coordBase := "http://" + coordAddr

	// Phase 1 — healthy, under injected client-side chaos. cut-body is
	// left out: it would sever established SSE subscriptions, which have
	// no replay story (by design — subscribers reconnect with
	// Last-Event-ID; loadgen holds one connection).
	// Rates are high because loadgen makes FEW requests (each stream is
	// one connection): this draws a handful of faults per run, not a
	// storm. Every fault class here is retried — resets and dropped
	// responses by Pump and loadgen's retry helper.
	profile := fmt.Sprintf("latency=1ms,jitter=2ms,reset=0.15,drop-response=0.15,seed=%s", seed)
	lg := exec.Command(loadgen,
		"-addr", coordBase,
		"-updates", "4000", "-batch", "64", "-streams", "4",
		"-subscribers", "3",
		"-fault-profile", profile,
	)
	out, err := lg.CombinedOutput()
	t.Logf("loadgen (healthy, faults injected):\n%s", out)
	if err != nil {
		t.Fatalf("loadgen under fault profile %q failed: %v", profile, err)
	}
	if !strings.Contains(string(out), "verified") {
		t.Fatalf("loadgen did not report verification:\n%s", out)
	}
	healthyResults, deg := queryResults(t, coordBase)
	if deg != nil {
		t.Fatalf("healthy cluster answered degraded: %s", deg)
	}
	// How many replayed frames each daemon's Idempotency-Key record
	// skipped (DESIGN §8.4). Faults sit only between loadgen and the
	// coordinator, so a node skips a frame only if the coordinator's own
	// routed stream retried it.
	for _, base := range append([]string{coordBase}, nodeURLs...) {
		_, st := getStats(t, base)
		wire, _ := st["wire"].(map[string]any)
		t.Logf("%s: wire.stream_frames=%v stream_frames_deduped=%v", base, wire["stream_frames"], wire["stream_frames_deduped"])
	}

	// Phase 2 — partition the proxied node. The quorum=2 coordinator must
	// keep answering 200 with an explicit degraded block naming it.
	proxy.Partition(true)
	deadline := time.Now().Add(15 * time.Second)
	var degBlock json.RawMessage
	for {
		_, degBlock = queryResults(t, coordBase)
		if degBlock != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never reported degraded after the partition")
		}
		time.Sleep(50 * time.Millisecond)
	}
	var parsed struct {
		Policy  string `json:"policy"`
		Missing []struct {
			Node string `json:"node"`
		} `json:"missing"`
	}
	if err := json.Unmarshal(degBlock, &parsed); err != nil {
		t.Fatalf("degraded block %s: %v", degBlock, err)
	}
	if parsed.Policy != "quorum=2" || len(parsed.Missing) != 1 || parsed.Missing[0].Node != proxy.URL() {
		t.Fatalf("degraded block = %s, want policy quorum=2 missing exactly %s", degBlock, proxy.URL())
	}
	// The floor is met, so the coordinator is degraded but READY; and
	// liveness never wavers.
	if s := getStatus(t, coordBase+"/readyz"); s != http.StatusOK {
		t.Errorf("degraded coordinator /readyz = %d, want 200 (quorum floor met)", s)
	}
	if s := getStatus(t, coordBase+"/healthz"); s != http.StatusOK {
		t.Errorf("degraded coordinator /healthz = %d, want 200", s)
	}

	// Read-only verified run against the reachable subset.
	lg = exec.Command(loadgen,
		"-addr", coordBase,
		"-updates", "0", "-subscribers", "2",
	)
	out, err = lg.CombinedOutput()
	t.Logf("loadgen (read-only, degraded):\n%s", out)
	if err != nil {
		t.Fatalf("read-only loadgen against degraded cluster failed: %v", err)
	}
	if !strings.Contains(string(out), "verified") {
		t.Fatalf("degraded read-only run did not verify:\n%s", out)
	}
	if !strings.Contains(string(out), "1 queries") {
		t.Fatalf("degraded run did not count the degraded query:\n%s", out)
	}

	// Writes to a LIVE node keep flowing and the degraded view advances.
	ingest := `{"updates":[{"instance":0,"id":900001,"weight":123.5},{"instance":1,"id":900002,"weight":77.25}]}`
	resp, err := http.Post(nodeURLs[0]+"/v1/ingest", "application/json", strings.NewReader(ingest))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct ingest to live node: %d", resp.StatusCode)
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		results, deg := queryResults(t, coordBase)
		if deg != nil && !reflect.DeepEqual(results, healthyResults) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("degraded view never folded in the live node's new writes (deg=%s)", deg)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Phase 3 — heal. The breaker's half-open probe reconnects and the
	// label clears.
	proxy.Partition(false)
	deadline = time.Now().Add(15 * time.Second)
	for {
		if _, deg := queryResults(t, coordBase); deg == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("degraded label never cleared after the partition lifted")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Phase 4 — bit-identity with a never-partitioned strict view: a
	// fresh strict coordinator over the same members (direct URLs, no
	// proxy) must answer exactly the same results.
	strictAddr := freeAddr(t)
	startClusterDaemon(t, monestd, strictAddr,
		"-cluster", strings.Join(nodeURLs, ","),
		"-cluster-poll", "0")
	healedResults, deg := queryResults(t, coordBase)
	if deg != nil {
		t.Fatalf("healed coordinator still degraded: %s", deg)
	}
	strictResults, deg := queryResults(t, "http://"+strictAddr)
	if deg != nil {
		t.Fatalf("strict coordinator answered degraded: %s", deg)
	}
	ja, _ := json.Marshal(healedResults)
	jb, _ := json.Marshal(strictResults)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("healed quorum view != never-partitioned strict view:\n%s\nvs\n%s", ja, jb)
	}
}
