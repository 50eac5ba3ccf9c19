package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// countAtLeast is the number of recorded samples of at least d.
func countAtLeast(h *hist, d time.Duration) int {
	from := int(math.Log(float64(d.Nanoseconds())) / histLnG)
	n := 0
	for _, c := range h.counts[from:] {
		n += int(c)
	}
	return n
}

func TestHistogramPercentileError(t *testing.T) {
	var h hist
	// 1000 samples, 1 ms .. 1000 ms: the exact q-quantile is q·1000 ms.
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Millisecond)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		want := q * 1000
		if got := h.ms(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q=%g: got %.3f ms, want %.0f ms within 1%%", q, got, want)
		}
	}
	if h.n() != 1000 {
		t.Errorf("n = %d, want 1000", h.n())
	}
}

func TestHistogramNeedsTenSamplesBeyondAPercentile(t *testing.T) {
	var h hist
	for i := 0; i < 199; i++ {
		h.record(time.Millisecond)
	}
	if h.supports(0.95) {
		t.Error("199 samples leave 9.95 beyond p95: it must not be quoted")
	}
	if !h.supports(0.5) {
		t.Error("the median needs no tail")
	}
	h.record(time.Millisecond)
	if !h.supports(0.95) {
		t.Error("200 samples leave ten beyond p95: it may be quoted")
	}
	if h.supports(0.99) {
		t.Error("200 samples leave two beyond p99: it must not be quoted")
	}
	if (&hist{}).supports(0.5) {
		t.Error("an empty histogram has no median")
	}

	// A report never passes an unsupported percentile off as a number: a
	// full run fails on it, a smoke run flags it.
	sp := &spec{PerLayer: []specMetric{{Name: "x.p95_ms", Unit: "ms"}, {Name: "x.p99_ms", Unit: "ms"}}}
	for _, full := range []bool{true, false} {
		rep := newReport("w")
		rep.layerQuantile("x.p95_ms", &h, 0.95)
		if err := rep.conform(sp, false, full); err != nil {
			t.Errorf("full=%v: a supported percentile was refused: %v", full, err)
		}
		rep.layerQuantile("x.p99_ms", &h, 0.99)
		err := rep.conform(sp, false, full)
		if full && (err == nil || !strings.Contains(err.Error(), "x.p99_ms")) {
			t.Errorf("a full run must fail on p99 of 200 samples, got %v", err)
		}
		if !full && (err != nil || len(rep.flags) != 1) {
			t.Errorf("a smoke run must flag p99 of 200 samples, got err %v, flags %v", err, rep.flags)
		}
	}
}

// A server that stalls once must inflate the samples queued behind the
// stall: that is what timing from the due time means. A closed loop facing
// the same stall records it once.
func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	const (
		interval = 5 * time.Millisecond
		stall    = 100 * time.Millisecond
		requests = 60
	)
	fake := func(i int) error {
		if i == 10 {
			time.Sleep(stall)
		}
		return nil
	}
	var lat series
	var late hist
	start := time.Now().Add(5 * time.Millisecond)
	st := openLoop(context.Background(), start, start, start.Add(requests*interval), interval, time.Second, &lat, &late,
		func(i int, _ time.Time) error { return fake(i) })
	if st.attempted != requests || st.failed != 0 {
		t.Fatalf("attempted %d failed %d, want %d and 0", st.attempted, st.failed, requests)
	}
	// Requests 10..19 were due during the stall: each waited at least
	// half of it although its own service time is zero.
	if n := countAtLeast(&lat.hist, stall/2); n < 8 {
		t.Errorf("only %d samples saw ≥ %v; the stall was not charged to the requests queued behind it", n, stall/2)
	}
	if n := countAtLeast(&late, stall/2); n < 8 {
		t.Errorf("only %d sends were recorded ≥ %v late", n, stall/2)
	}

	var closed series
	begin := time.Now()
	closedLoop(context.Background(), begin, begin.Add(requests*interval+stall), time.Second, &closed,
		func(int) { time.Sleep(interval) }, // making the input is the generator's time
		func(i int) error { return fake(i) })
	if n := countAtLeast(&closed.hist, stall/2); n != 1 {
		t.Errorf("closed loop recorded the stall %d times, want once", n)
	}
	if n := countAtLeast(&closed.hist, interval); n != 1 {
		t.Errorf("%d closed-loop samples include the %v their input took to make, want only the stall", n, interval)
	}
}

func TestOpenLoopCountsErrorsAndOverLimit(t *testing.T) {
	var lat series
	var late hist
	start := time.Now()
	st := openLoop(context.Background(), start, start, start.Add(40*time.Millisecond), 10*time.Millisecond, 5*time.Millisecond, &lat, &late,
		func(i int, _ time.Time) error {
			switch i {
			case 1:
				return context.Canceled
			case 2:
				time.Sleep(8 * time.Millisecond)
			}
			return nil
		})
	if st.attempted != 4 || st.failed != 1 || st.overLimit != 1 || st.firstErr == nil {
		t.Errorf("got %+v, want 4 attempted, 1 failed, 1 over the limit, and the error kept", st)
	}
}

// A series cuts each round's window into slices, keeps what completed in
// each, and drops what completed outside; quiet is the mean of the lower
// half of the slice medians, which one disturbed slice cannot move.
func TestSeriesSlicesAndTheQuietHalf(t *testing.T) {
	var s series
	origin := time.Unix(1000, 0)
	at := func(sec float64) time.Time { return origin.Add(time.Duration(sec * float64(time.Second))) }
	fill := func(from float64, took time.Duration) {
		for i := 0; i < minSliceSamples; i++ {
			s.recordAt(at(from+0.1*float64(i)), took)
		}
	}
	if base := s.begin(origin, time.Second, 3); base != 0 {
		t.Fatalf("first round starts at slice %d", base)
	}
	fill(0, 10*time.Millisecond)
	fill(1, 30*time.Millisecond) // a disturbed slice
	s.recordAt(at(2.5), 11*time.Millisecond)
	s.recordAt(at(-0.5), time.Second) // warm-up: pooled only
	s.recordAt(at(3.5), time.Second)  // past the window: pooled only
	if base := s.begin(at(100), time.Second, 2); base != 3 {
		t.Fatalf("second round starts at slice %d, want 3", base)
	}
	fill(100, 12*time.Millisecond)
	fill(101, 10*time.Millisecond)
	if s.n() != 4*minSliceSamples+3 {
		t.Errorf("pooled n = %d", s.n())
	}
	if got := s.sliceCount(2); got != 1 {
		t.Errorf("slice 2 holds %d samples, want 1", got)
	}
	// Throughput is read from the median slice: the near-empty slice 2 (a
	// stall) does not drag it, and nothing outside a window counts.
	if got := median(s.sliceCounts()); got != minSliceSamples {
		t.Errorf("median slice completed %g samples, want %d", got, minSliceSamples)
	}
	// Slice 2 has too few samples for a median; the others read 10, 30, 12, 10.
	med := s.sliceMedians()
	if len(med) != 4 || med[1] != 30 {
		t.Fatalf("slice medians %v", med)
	}
	if got := quiet(med); got != 10 {
		t.Errorf("quiet half %g, want 10: the disturbed slice must not move it", got)
	}
	if got := quiet([]float64{40, 1, 30, 2, 6}); got != 3 {
		t.Errorf("the lower half of 1, 2, 6, 30, 40 averages %g, want 3", got)
	}
	if quiet(nil) != 0 {
		t.Error("no slices, no number")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a: [10,50] is covered once
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 6, Parent: 3, Name: "e", Start: 25, End: 45},  // a grandchild only reduces b
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 40 - 10 - 10, 2: 20, 3: 10, 4: 10, 5: 30, 6: 20} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
	agg := aggregate(spans)
	if a := agg["b"]; a.calls != 1 || a.self != 10 || a.total != 30 {
		t.Errorf("aggregate b = %+v", a)
	}
}

func TestGeneratorIsSeededAndCumulative(t *testing.T) {
	a, b, c := newGen(7, 512, 1<<10), newGen(7, 512, 1<<10), newGen(8, 512, 1<<10)
	fa, fb, fc := newFrames(8), newFrames(8), newFrames(8)
	a.fill(fa)
	b.fill(fb)
	c.fill(fc)
	same := func(x, y [][]engine.Update) bool {
		for i := range x {
			for j := range x[i] {
				if x[i][j] != y[i][j] {
					return false
				}
			}
		}
		return true
	}
	if !same(fa, fb) {
		t.Error("the same seed must give the same inputs")
	}
	if same(fa, fc) {
		t.Error("another seed must give other inputs")
	}
	// Weights of one (instance, key) only grow: every update is a real
	// mutation under max semantics.
	last := map[[2]uint64]float64{}
	for round := 0; round < 300; round++ { // well past one cycle of the pool
		a.fill(fa)
		for _, f := range fa {
			for _, u := range f {
				k := [2]uint64{uint64(u.Instance), u.Key}
				if u.Weight <= last[k] {
					t.Fatalf("key %v weight %g after %g: not cumulative", k, u.Weight, last[k])
				}
				last[k] = u.Weight
			}
		}
	}
	final, err := a.final()
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range last {
		if final.W[k[0]][k[1]] != w {
			t.Fatalf("final weight of %v is %g, last sent %g", k, final.W[k[0]][k[1]], w)
		}
	}
}

// The smoke pass drives all four workloads against real daemons with a
// tiny key universe, traced, and demands that what is printed is exactly
// what BENCHMARK.json names: workloads, end-to-end metrics, per-layer
// metrics and units.
func TestSmokeRunMatchesTheContract(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	reports, err := benchMain(options{seed: 1, trace: 1, smoke: true}, &out)
	if err != nil {
		t.Fatalf("smoke run: %v\n%s", err, out.String())
	}
	if len(reports) != len(sp.Workloads) {
		t.Fatalf("%d workloads ran, BENCHMARK.json names %d", len(reports), len(sp.Workloads))
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	emitted := map[string]bool{} // per_layer names some workload measured rather than had filled in
	for i, rep := range reports {
		for name := range rep.layers {
			if !rep.bypassed[name] {
				emitted[name] = true
			}
		}
		if rep.workload != sp.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, rep.workload, sp.Workloads[i].Name)
		}
		for _, m := range sp.EndToEnd {
			if got, ok := rep.endToEnd[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: end_to_end %s [%s] printed as %+v", rep.workload, m.Name, m.Unit, got)
			}
		}
		if len(rep.endToEnd) != len(sp.EndToEnd) || len(rep.layers) != len(sp.PerLayer) {
			t.Errorf("%s: %d end_to_end and %d per_layer metrics, BENCHMARK.json names %d and %d",
				rep.workload, len(rep.endToEnd), len(rep.layers), len(sp.EndToEnd), len(sp.PerLayer))
		}
		// The driver's line: the last lines of the output, one per workload.
		var res struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Failed    int                        `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		line := lines[len(lines)-len(reports)+i]
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("%s: result line %q: %v", rep.workload, line, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: result %+v", rep.workload, res)
		}
		for _, m := range sp.PerLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: traced result line lacks per_layer metric %q", rep.workload, m.Name)
			}
		}
		if len(res.Metrics) != len(sp.PerLayer) {
			t.Errorf("%s: traced result line has %d metrics, want %d", rep.workload, len(res.Metrics), len(sp.PerLayer))
		}
	}
	// conform fills a per_layer metric a workload lacks with 0, so the
	// counts above cannot catch a span rename or a replay step that stopped
	// emitting: every name must be measured by at least one workload.
	for _, m := range sp.PerLayer {
		if !emitted[m.Name] {
			t.Errorf("per_layer metric %q is in BENCHMARK.json but no workload emits it", m.Name)
		}
	}
	if _, err := benchMain(options{seed: 1, seconds: sp.RunSeconds + 1, smoke: true}, &out); err == nil {
		t.Error("a --seconds other than run_seconds must be refused")
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "bench" {
		t.Errorf("paths = %v", sp.Paths)
	}
}
