package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseBenchLines(t *testing.T) {
	out := strings.Join([]string{
		"goos: linux",
		"goarch: amd64",
		"pkg: repro/internal/server",
		"cpu: Intel(R) Xeon(R)",
		"BenchmarkChurnServe",
		"BenchmarkChurnServe/U=65536-2 \t     100\t    210345 ns/op\t   63012 B/op\t     120 allocs/op",
		"BenchmarkIngestBatch-2   \t     100\t     98765 ns/op\t       256.0 updates/op\t       0 B/op",
		"BenchmarkScatterGather/cluster-64k-3nodes-2 \t     100\t   1234567 ns/op\t  400000 stateB/op",
		"PASS",
		"ok  \trepro/internal/engine\t3.21s",
	}, "\n")
	got, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkChurnServe/U=65536":               210345,
		"BenchmarkIngestBatch":                      98765,
		"BenchmarkScatterGather/cluster-64k-3nodes": 1234567,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse = %v, want %v", got, want)
	}
}

func TestMedianOfPairedRatios(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
	// Paired ratios 1.1, 0.9, 3.0: the median is 1.1, within bound,
	// while the ratio of the per-side medians (180/100) would fail.
	pair := func(base, head float64) round {
		return round{base: map[string]float64{"BenchmarkIngestBatch": base}, head: map[string]float64{"BenchmarkIngestBatch": head}}
	}
	var out strings.Builder
	if n := verdict(&out, []round{pair(100, 110), pair(200, 180), pair(100, 300)}); n != 0 {
		t.Fatalf("gate failed on a 1.1x median paired ratio:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1.10x") {
		t.Errorf("table does not report the 1.10x median ratio:\n%s", out.String())
	}
}

// aa returns five rounds of the thirteen gated names with head/base ratios
// spread like an A/A run on a shared host.
func aa() []round {
	names := []string{
		"BenchmarkIngestBatch", "BenchmarkIngestZipf", "BenchmarkSnapshotIncremental/keys=65536",
		"BenchmarkIngestWAL/fsync=never", "BenchmarkRecoverCheckpointTail",
		"BenchmarkStreamIngest256", "BenchmarkSubscribePushLag", "BenchmarkChurnServe/U=65536", "BenchmarkClusterQuery",
		"BenchmarkScatterGather/cluster-64k-3nodes", "BenchmarkScatterGather/single-16k",
		"BenchmarkSyncDeadNode", "BenchmarkRoutedStream",
	}
	noise := []float64{0.86, 1.10, 0.97, 1.04, 0.92}
	rs := make([]round, len(noise))
	for r := range rs {
		rs[r] = round{base: map[string]float64{}, head: map[string]float64{}}
		for i, name := range names {
			base := float64(1000 * (i + 1))
			rs[r].base[name] = base
			rs[r].head[name] = base * noise[(r+i)%len(noise)]
		}
	}
	return rs
}

func failLines(out string) []string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "FAIL") {
			lines = append(lines, line)
		}
	}
	return lines
}

func TestGatePassesWithinBound(t *testing.T) {
	var out strings.Builder
	if n := verdict(&out, aa()); n != 0 {
		t.Fatalf("A/A rounds failed the gate:\n%s", out.String())
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	rs := aa()
	for _, r := range rs {
		r.head["BenchmarkIngestBatch"] = 1.5 * r.base["BenchmarkIngestBatch"]
	}
	var out strings.Builder
	if n := verdict(&out, rs); n != 1 {
		t.Fatalf("gate counted %d failures on one 1.5x regression, want 1:\n%s", n, out.String())
	}
	fails := failLines(out.String())
	if len(fails) != 1 || !strings.HasPrefix(fails[0], "BenchmarkIngestBatch ") {
		t.Fatalf("FAIL lines %q, want exactly BenchmarkIngestBatch", fails)
	}
}

func TestGateFailsOnMissingBenchmarkAndEmptyBase(t *testing.T) {
	rs := aa()
	for _, r := range rs {
		delete(r.head, "BenchmarkSyncDeadNode")
	}
	var out strings.Builder
	if n := verdict(&out, rs); n != 1 || !strings.Contains(out.String(), "missing from head") {
		t.Fatalf("gate did not fail once on a gated benchmark missing from head (%d):\n%s", n, out.String())
	}
	empty := []round{{base: map[string]float64{}, head: aa()[0].head}}
	out.Reset()
	if n := verdict(&out, empty); n != 1 || !strings.Contains(out.String(), "misconfiguration") {
		t.Fatalf("gate passed selectors that match nothing in base:\n%s", out.String())
	}
}

func TestGateNewBenchmarkIsAdvisory(t *testing.T) {
	rs := aa()
	for _, r := range rs {
		r.head["BenchmarkBrandNew"] = 1e9
	}
	var out strings.Builder
	if n := verdict(&out, rs); n != 0 {
		t.Fatalf("a benchmark only head has failed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "new (not in base") {
		t.Errorf("new benchmark not reported:\n%s", out.String())
	}
}

func TestBaseRevFollowsWorkingTree(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	gitT := func(args ...string) string {
		t.Helper()
		out, err := git(dir, append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gitT("init", "-q")
	write("a.go", "package a\n")
	gitT("add", "a.go")
	gitT("commit", "-q", "-m", "one")
	if _, _, err := baseRev(dir); err == nil || !strings.Contains(err.Error(), "HEAD^1 not found") {
		t.Fatalf("clean single-commit tree: err = %v, want HEAD^1 not found", err)
	}
	first := gitT("rev-parse", "HEAD")

	write("a.go", "package a\n\nvar x int\n")
	if rev, sha, err := baseRev(dir); err != nil || rev != "HEAD" || sha != first {
		t.Fatalf("dirty tree: base = %s %s, %v; want HEAD %s", rev, sha, err, first)
	}

	gitT("commit", "-q", "-am", "two")
	write("BENCH_artifact.json", "{}\n") // untracked: does not make the tree dirty
	if rev, sha, err := baseRev(dir); err != nil || rev != "HEAD^1" || sha != first {
		t.Fatalf("clean tree: base = %s %s, %v; want HEAD^1 %s", rev, sha, err, first)
	}
}
