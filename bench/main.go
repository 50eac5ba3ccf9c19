// Command bench is the repository's benchmark: it builds cmd/monestd,
// drives real daemon processes over loopback with seeded workloads,
// checks every answer against an in-process oracle, and prints every
// metric of BENCHMARK.json by name with its unit. README.md defines the
// workloads and metrics; BENCHMARK.json fixes their names and bounds.
//
//	go run ./bench                          all workloads, end-to-end metrics
//	go run ./bench --workload query-churn   one workload
//	go run ./bench --trace 1                the traced run: per-layer metrics
//
// The run length is not a knob: it is run_seconds of BENCHMARK.json, the
// same on every commit. --seconds exists because the driver's command line
// carries it, and any other value is refused.
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; a wrong answer, a failed
// request or a dead daemon exits non-zero and prints no metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"durable-ingest", (*run).durableIngest},
	{"query-churn", (*run).queryChurn},
	{"query-static", (*run).queryStatic},
	{"cluster-3node", (*run).cluster3node},
}

type options struct {
	workload string
	seed     int64
	seconds  int // 0 = not given
	trace    int
	smoke    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all of them, in order)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input: permutation, increments, selections")
	flag.IntVar(&o.seconds, "seconds", 0, "measured seconds per workload: must be run_seconds of BENCHMARK.json, which fixes it")
	flag.IntVar(&o.trace, "trace", 0, "1 = the traced run: report the per-layer metrics and write bench/out/trace-<workload>.json")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny key universe, set-up and window, for the test suite")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected argument", flag.Arg(0))
		os.Exit(2)
	}
	if _, err := benchMain(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// benchMain runs the selected workloads and prints the report; it returns
// the reports for the test suite.
func benchMain(o options, out io.Writer) ([]*report, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return nil, err
	}
	if o.seconds != 0 && o.seconds != sp.RunSeconds {
		return nil, fmt.Errorf("--seconds %d: the run length is fixed by BENCHMARK.json (run_seconds %d)", o.seconds, sp.RunSeconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	selected := workloads
	if o.workload != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == o.workload {
				selected = append(selected, w)
			}
		}
		if selected == nil {
			return nil, fmt.Errorf("unknown workload %q", o.workload)
		}
	}

	// The generator is one process sized to the machine: GOMAXPROCS stays
	// at nproc, and no workload drives more than nproc connections.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	load := loadavg()
	fl, buildTime, err := buildDaemon(root)
	if err != nil {
		return nil, err
	}
	defer fl.killAll()
	fmt.Fprintf(out, "environment: commit=%s %s nproc=%d GOMAXPROCS=%d seed=%d run_seconds=%d trace=%d smoke=%v loadavg=[%s] build_s=%.3f\n",
		commit(root), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.seed, sp.RunSeconds, o.trace, o.smoke, load, buildTime.Seconds())

	var reports []*report
	for _, w := range selected {
		rep, err := runWorkload(ctx, fl, sp, o, w.name, w.run)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		reports = append(reports, rep)
	}
	// Metrics are printed only once every workload passed its checks.
	for _, rep := range reports {
		rep.print(out, sp)
	}
	for _, rep := range reports {
		fmt.Fprintln(out, rep.resultLine(o.trace == 1))
	}
	return reports, nil
}

func runWorkload(ctx context.Context, fl *fleet, sp *spec, o options, name string, body func(*run) error) (*report, error) {
	sz := fullSizing
	sz.window = time.Duration(sp.RunSeconds) * time.Second / time.Duration(sz.rounds)
	if o.smoke {
		sz = smokeSizing
	}
	r := &run{ctx: ctx, sz: sz, seed: o.seed, trace: o.trace == 1, fleet: fl, api: newAPI(), rep: newReport(name)}
	defer r.api.close()
	defer fl.killAll()
	if err := body(r); err != nil {
		return nil, err
	}
	if r.trace {
		if err := r.traced(); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A smoke run is too short for its percentiles to have the samples
	// they need; only a full run must produce every number.
	if err := r.rep.conform(sp, r.trace, !o.smoke); err != nil {
		return nil, err
	}
	r.rep.notes = append(r.rep.notes, fmt.Sprintf("%d rounds of %v on fresh daemons; inputs generated in %.3f s; %d updates sent",
		sz.rounds, sz.window, r.genTime.Seconds(), r.sent))
	return r.rep, nil
}

// commit names the checkout for the environment record; the driver's
// checkouts are not git repositories.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
