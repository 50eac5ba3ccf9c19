// Command benchgate is the paired micro-benchmark gate behind
// `make benchgate`. It builds the gated packages' test binaries twice,
// from the working tree (head) and from a base revision, runs the two
// sides on this host in alternating order, and fails when a gated
// benchmark's median head/base ns/op ratio across rounds exceeds
// maxRatio. Both sides share the host, the session and the load, so the
// ratio measures the code rather than the machine: a baseline cut on
// another day cannot make it red.
//
// The base is derived, not configured. When tracked files have
// uncommitted changes the base is HEAD, so the gate measures the diff;
// otherwise it is HEAD^1, which is the base tip of a GitHub pull-request
// merge commit and the previous commit on a push. The base tree is
// unpacked with `git archive` into a temporary directory, so the
// repository is only read.
//
//	go run ./cmd/benchgate
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

const (
	// rounds is the number of paired runs per benchmark; each round runs
	// both sides once, alternating which goes first. Even, so each side
	// goes first equally often and an order effect cancels in the median.
	// At 100x a single A/A ratio spreads widely on a shared 2-vCPU host
	// (log-ratio sd 0.11–0.38 by benchmark over 40 rounds): 6 rounds
	// failed 2 of 10 unchanged-code runs, 20 keeps the worst of the eight
	// medians under 1.22 in 99 % of resampled runs.
	rounds = 20
	// maxRatio is the median head/base ns/op ratio above which a gated
	// benchmark fails. Unchanged-code medians stayed within 0.85–1.13
	// over 10 runs on that host; the margin above them is for runners
	// whose spread has not been measured.
	maxRatio  = 1.30
	benchtime = "100x"
	timeout   = "10m"
)

// suites are the gated benchmarks, as `go test -bench` selectors run
// from their package directory. The server needs two: go's
// slash-segmented pattern treats a two-segment regex as
// sub-benchmark-only, so a leaf benchmark (no b.Run) never reports under
// it. BenchmarkScatterGather's two sub-benchmarks are both gated;
// BenchmarkChurnServe's smallest universe stands for the churn-shaped
// rebuild (its other cases cost the same, by design),
// BenchmarkSnapshotIncremental's keys=65536 case for the engine rebuild
// alone (the anchored ^…$ leaves out its -merged and -newkey variants),
// BenchmarkIngestWAL's fsync=never case for the journaled write path
// without the disk flush, BenchmarkRecoverCheckpointTail for the boot
// a durable node pays before it serves: checkpoint restore plus the
// shard-parallel replay of a WAL tail, BenchmarkCheckpoint's two
// sub-benchmarks for a checkpoint that rewrites the registry and one that
// leaves it out, BenchmarkSubscribePushLag for
// the ingest→push lag an SSE subscriber sees after a 4-frame stream,
// BenchmarkQueryCached's two sub-benchmarks (estimate_sum, batched4) for
// a /v1/query answered from the per-version memo's stored bytes, and
// BenchmarkUStarUnequalTau for one served U* estimate: bottom-k
// thresholds are per instance, so the backward solver runs, and its cost
// is the DataLB kernel's and the family built once per solver point.
var suites = []struct{ pkg, bench string }{
	{"internal/engine", "^(BenchmarkIngestBatch|BenchmarkIngestZipf)$"},
	{"internal/engine", "^BenchmarkSnapshotIncremental$/^keys=65536$"},
	{"internal/server", "^(BenchmarkStreamIngest256|BenchmarkSubscribePushLag|BenchmarkQueryCached)$"},
	{"internal/server", "^BenchmarkChurnServe$/^U=65536$"},
	{"internal/store", "^BenchmarkIngestWAL$/^fsync=never$"},
	{"internal/store", "^(BenchmarkRecoverCheckpointTail|BenchmarkCheckpoint)$"},
	{"internal/cluster", "^(BenchmarkClusterQuery|BenchmarkScatterGather|BenchmarkSyncDeadNode)$"},
	{"internal/cluster", "^BenchmarkRoutedStream$"},
	{"internal/funcs", "^BenchmarkUStarUnequalTau$"},
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// side is one tree under test: its source root and its built test
// binaries by package.
type side struct {
	name, src string
	bins      map[string]string
}

func run(w io.Writer) error {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	rev, sha, err := baseRev(root)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchgate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	baseSrc := filepath.Join(tmp, "base")
	if err := unpack(root, sha, baseSrc); err != nil {
		return err
	}
	head := &side{name: "head", src: root}
	base := &side{name: "base", src: baseSrc}
	for _, s := range []*side{head, base} {
		if err := build(s, filepath.Join(tmp, s.name+"-bin")); err != nil {
			return err
		}
	}

	cpu := strconv.Itoa(runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "benchgate: head = working tree, base = %s (%.12s); %d rounds at %s, -test.cpu %s\n", rev, sha, rounds, benchtime, cpu)
	rs := make([]round, rounds)
	for r := range rs {
		rs[r] = round{base: map[string]float64{}, head: map[string]float64{}}
		order := []*side{head, base}
		if r%2 == 1 {
			order = []*side{base, head}
		}
		for _, su := range suites {
			for _, s := range order {
				got, err := runBench(s, su.pkg, su.bench, cpu)
				if err != nil {
					return err
				}
				dst := rs[r].head
				if s == base {
					dst = rs[r].base
				}
				for name, ns := range got {
					dst[name] = ns
				}
			}
		}
		fmt.Fprintf(w, "round %d/%d done\n", r+1, rounds)
	}
	if n := verdict(w, rs); n > 0 {
		return fmt.Errorf("%d gated benchmark(s) failed against %s", n, rev)
	}
	fmt.Fprintln(w, "gate: all gated benchmarks within bound")
	return nil
}

// git runs a git command in dir and returns its trimmed stdout.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// baseRev picks the base revision and resolves it to a commit: HEAD when
// tracked files have uncommitted changes, HEAD^1 otherwise. Untracked
// files do not count: CI writes its benchmark artifact into the checkout
// before the gate runs.
func baseRev(root string) (rev, sha string, err error) {
	status, err := git(root, "status", "--porcelain", "--untracked-files=no")
	if err != nil {
		return "", "", err
	}
	rev = "HEAD^1"
	if status != "" {
		rev = "HEAD"
	}
	sha, err = git(root, "rev-parse", "--verify", "--quiet", rev+"^{commit}")
	if err != nil {
		return "", "", fmt.Errorf("base revision %s not found (a shallow clone needs fetch-depth: 2): %w", rev, err)
	}
	return rev, sha, nil
}

// unpack extracts the tree of commit sha into dir.
func unpack(root, sha, dir string) error {
	archive := exec.Command("git", "archive", sha)
	archive.Dir = root
	tarball, err := archive.Output()
	if err != nil {
		return fmt.Errorf("git archive %s: %w", sha, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tar := exec.Command("tar", "-x", "-C", dir)
	tar.Stdin = bytes.NewReader(tarball)
	if out, err := tar.CombinedOutput(); err != nil {
		return fmt.Errorf("tar -x: %w\n%s", err, out)
	}
	return nil
}

// build compiles one test binary per gated package of s into binDir.
func build(s *side, binDir string) error {
	s.bins = map[string]string{}
	for _, su := range suites {
		if _, ok := s.bins[su.pkg]; ok {
			continue
		}
		bin := filepath.Join(binDir, filepath.Base(su.pkg)+".test")
		cmd := exec.Command("go", "test", "-c", "-o", bin, "./"+su.pkg)
		cmd.Dir = s.src
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("%s: go test -c ./%s: %w\n%s", s.name, su.pkg, err, out)
		}
		s.bins[su.pkg] = bin
	}
	return nil
}

// runBench runs one selector on one side and returns ns/op by name.
func runBench(s *side, pkg, bench, cpu string) (map[string]float64, error) {
	cmd := exec.Command(s.bins[pkg], "-test.run", "^$", "-test.bench", bench,
		"-test.benchtime", benchtime, "-test.timeout", timeout, "-test.cpu", cpu)
	cmd.Dir = filepath.Join(s.src, pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("%s %s -test.bench %s: %w\n%s", s.name, pkg, bench, err, out)
	}
	return parse(bytes.NewReader(out))
}

// resultLine matches a benchmark result: name, iteration count, then at
// least one metric. Bare name announcements carry no fields.
var resultLine = regexp.MustCompile(`^Benchmark\S+\s+\d+\s`)

// gmpSuffix is the -N GOMAXPROCS marker go test appends to benchmark
// names ("BenchmarkIngestBatch-16").
var gmpSuffix = regexp.MustCompile(`-\d+$`)

// parse reads plain `go test -bench` output into ns/op by benchmark name,
// GOMAXPROCS suffix stripped.
func parse(r io.Reader) (map[string]float64, error) {
	got := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !resultLine.MatchString(line) {
			continue
		}
		fields := strings.Fields(line)
		for i := 3; i < len(fields); i++ {
			if fields[i] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad ns/op in %q", line)
			}
			got[gmpSuffix.ReplaceAllString(fields[0], "")] = v
			break
		}
	}
	return got, sc.Err()
}

// round holds one round's ns/op by benchmark name for each side.
type round struct{ base, head map[string]float64 }

// verdict writes the per-benchmark table and returns the number of
// failures: a median paired ratio above maxRatio, or a benchmark base
// reports and head does not. A benchmark only head reports is new and
// advisory; a base reporting nothing means the selectors are wrong.
func verdict(w io.Writer, rs []round) int {
	inBase, inHead := map[string]bool{}, map[string]bool{}
	for _, r := range rs {
		for name := range r.base {
			inBase[name] = true
		}
		for name := range r.head {
			inHead[name] = true
		}
	}
	if len(inBase) == 0 {
		fmt.Fprintln(w, "gate: the selectors match no benchmark in base; gating nothing is a misconfiguration")
		return 1
	}
	failures := 0
	fmt.Fprintf(w, "%-46s %12s %12s %7s %13s\n", "benchmark", "base ns/op", "head ns/op", "ratio", "ratio range")
	for _, name := range slices.Sorted(maps.Keys(inBase)) {
		bases, heads, ratios := samples(rs, name)
		if len(ratios) == 0 {
			fmt.Fprintf(w, "%-46s %12.0f %12s %7s %13s  FAIL (missing from head)\n", name, median(bases), "-", "-", "-")
			failures++
			continue
		}
		ratio := median(ratios)
		status := "ok"
		if ratio > maxRatio {
			status = fmt.Sprintf("FAIL (> %.2fx)", maxRatio)
			failures++
		}
		fmt.Fprintf(w, "%-46s %12.0f %12.0f %6.2fx %6.2f–%-6.2f  %s\n", name, median(bases), median(heads), ratio, slices.Min(ratios), slices.Max(ratios), status)
	}
	for _, name := range slices.Sorted(maps.Keys(inHead)) {
		if !inBase[name] {
			_, heads, _ := samples(rs, name)
			fmt.Fprintf(w, "%-46s %12s %12.0f %7s %13s  new (not in base, advisory)\n", name, "-", median(heads), "-", "-")
		}
	}
	return failures
}

// samples collects one benchmark's ns/op per side across rounds, and
// the head/base ratio of every round that has both.
func samples(rs []round, name string) (bases, heads, ratios []float64) {
	for _, r := range rs {
		b, okb := r.base[name]
		h, okh := r.head[name]
		if okb {
			bases = append(bases, b)
		}
		if okh {
			heads = append(heads, h)
		}
		if okb && okh {
			ratios = append(ratios, h/b)
		}
	}
	return bases, heads, ratios
}

func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
