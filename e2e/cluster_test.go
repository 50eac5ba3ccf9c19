//go:build e2e

package e2e

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startClusterDaemon boots one monestd process with explicit extra
// flags (node or coordinator role) and waits for readiness.
func startClusterDaemon(t *testing.T, bin, addr string, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{
		"-addr", addr,
		"-instances", "2", "-k", "64", "-shards", "8", "-salt", "5",
		"-subscribe-debounce", "20ms",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	url := "http://" + addr + "/healthz"
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon on %s never became ready: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func getStats(t *testing.T, base string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding /v1/stats: %v", err)
	}
	return resp.StatusCode, m
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %v", url, resp.StatusCode, err)
	}
	return body
}

// TestCluster boots a real 3-node cluster — three monestd nodes with
// their own data dirs plus a coordinator — drives verified load through
// the coordinator (binary streaming ingest routed to owner nodes, SSE
// pushes equal to /v1/query), checks that its fetches were sketch-sized
// and counted every update once, then SIGKILLs one node to confirm the
// coordinator degrades to 503 instead of under-counting, and restarts
// the node from its data dir to confirm recovery.
func TestCluster(t *testing.T) {
	monestd, loadgen := buildBinaries(t)

	nodeAddrs := make([]string, 3)
	nodeDirs := make([]string, 3)
	nodeCmds := make([]*exec.Cmd, 3)
	nodeURLs := make([]string, 3)
	for i := range nodeAddrs {
		nodeAddrs[i] = freeAddr(t)
		nodeDirs[i] = t.TempDir()
		nodeCmds[i] = startClusterDaemon(t, monestd, nodeAddrs[i],
			"-data-dir", nodeDirs[i], "-checkpoint-interval", "0", "-fsync", "always")
		nodeURLs[i] = "http://" + nodeAddrs[i]
	}
	coordAddr := freeAddr(t)
	startClusterDaemon(t, monestd, coordAddr,
		"-cluster", strings.Join(nodeURLs, ","),
		"-cluster-poll", "50ms")
	coordBase := "http://" + coordAddr

	// Verified load THROUGH the coordinator: binary streams in, SSE
	// pushes out, pushed estimates byte-equal to /v1/query at the same
	// version — all over merged cluster state.
	lg := exec.Command(loadgen,
		"-addr", coordBase,
		"-updates", "6000", "-batch", "128", "-streams", "2",
		"-subscribers", "2",
	)
	out, err := lg.CombinedOutput()
	t.Logf("loadgen:\n%s", out)
	if err != nil {
		t.Fatalf("loadgen through coordinator failed: %v", err)
	}
	if !strings.Contains(string(out), "verified") {
		t.Fatalf("loadgen did not report verification:\n%s", out)
	}

	// One more read so the coordinator has synced past the last write.
	queryResults(t, coordBase)

	// The ring spread the keys: every node holds a non-empty share, and
	// the coordinator serves the full merged key count.
	var nodeKeys, coordKeys, nodeIngests float64
	minArtifact := math.MaxInt
	for i, u := range nodeURLs {
		_, stats := getStats(t, u)
		eng, _ := stats["engine"].(map[string]any)
		keys, _ := eng["keys"].(float64)
		if keys == 0 {
			t.Errorf("node %d holds no keys", i)
		}
		nodeKeys += keys
		ingests, _ := eng["ingests"].(float64)
		nodeIngests += ingests
		minArtifact = min(minArtifact, len(getBody(t, u+"/v1/export")))
	}
	_, coordStats := getStats(t, coordBase)
	coordEng, _ := coordStats["engine"].(map[string]any)
	coordKeys, _ = coordEng["keys"].(float64)
	if coordKeys != nodeKeys {
		t.Errorf("coordinator serves %v keys, nodes hold %v", coordKeys, nodeKeys)
	}
	// Each fetch moved a sketch-sized cut, not a node's full state, and
	// every routed update was counted once.
	clusterStats, _ := coordStats["cluster"].(map[string]any)
	syncStats, _ := clusterStats["stats"].(map[string]any)
	stateBytes, _ := syncStats["state_bytes"].(float64)
	fetches, _ := syncStats["fetches"].(float64)
	if fetches == 0 || stateBytes/fetches >= float64(minArtifact) {
		t.Errorf("coordinator fetched %v bytes in %v fetches; want under one full node artifact (%d B) per fetch",
			stateBytes, fetches, minArtifact)
	}
	if coordIngests, _ := coordEng["ingests"].(float64); coordIngests != nodeIngests {
		t.Errorf("coordinator counts %v ingests, nodes %v", coordIngests, nodeIngests)
	}

	// Degraded mode: SIGKILL one node (no graceful WAL flush — the WAL
	// is the durability story) and the coordinator must answer 503, not
	// partial estimates.
	killed := 1
	if err := nodeCmds[killed].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	nodeCmds[killed].Wait()
	deadline := time.Now().Add(15 * time.Second)
	for {
		status, _ := getStats(t, coordBase) // stats still work (local merge engine)
		if status != http.StatusOK {
			t.Fatalf("/v1/stats on coordinator: %d", status)
		}
		resp, err := http.Post(coordBase+"/v1/query", "application/json",
			strings.NewReader(`{"queries":[{"func":"rg","p":1,"estimator":"lstar"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator query answered %d with a node down, want 503", resp.StatusCode)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Recovery: the node comes back on the SAME address from its own
	// data dir (WAL replay) and the coordinator serves full queries
	// again with all keys present.
	startClusterDaemon(t, monestd, nodeAddrs[killed],
		"-data-dir", nodeDirs[killed], "-checkpoint-interval", "0", "-fsync", "always")
	deadline = time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Post(coordBase+"/v1/query", "application/json",
			strings.NewReader(`{"queries":[{"func":"rg","p":1,"estimator":"lstar"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		ok := resp.StatusCode == http.StatusOK
		resp.Body.Close()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never recovered after node restart (last status %d)", resp.StatusCode)
		}
		time.Sleep(50 * time.Millisecond)
	}
	_, coordStats = getStats(t, coordBase)
	if eng, ok := coordStats["engine"].(map[string]any); ok {
		if got, _ := eng["keys"].(float64); got != nodeKeys {
			t.Errorf("after recovery coordinator serves %v keys, want %v", got, nodeKeys)
		}
	}
}
