package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported number. N is the sample count behind a median or
// percentile (0 for counters and ratios).
type metric struct {
	Value float64
	Unit  string
	N     int
}

// report collects what one workload run measured. endToEnd holds exactly
// the end_to_end metrics of BENCHMARK.json; layers holds the per_layer
// metrics: the user-visible numbers that only this workload has (e2e.*),
// the daemon's layer counters, generator health, and, on a traced run, the
// per-layer timings.
type report struct {
	workload  string
	endToEnd  map[string]metric
	layers    map[string]metric
	attempted int
	failed    int      // requests that erred; a run that has any prints no report
	overLimit int      // correct answers slower than their class limit
	flags     []string // conditions that make the numbers suspect
	notes     []string

	// unsupported names the percentiles quoted without ten samples beyond
	// them; conform fails a full run on any. bypassed names the per_layer
	// metrics this workload did not emit and conform filled in as 0.
	unsupported []string
	bypassed    map[string]bool
}

func newReport(workload string) *report {
	return &report{workload: workload, endToEnd: map[string]metric{}, layers: map[string]metric{}, bypassed: map[string]bool{}}
}

func (r *report) e2e(name string, v float64, unit string, n int) {
	r.endToEnd[name] = metric{v, unit, n}
}

func (r *report) layer(name string, v float64, unit string, n int) {
	r.layers[name] = metric{v, unit, n}
}

// pct reads quantile q of h for the metric called name. A percentile the
// sample does not support is never passed off as a number: it is booked in
// unsupported, which fails a full run.
func (r *report) pct(name string, h *hist, q float64) metric {
	if !h.supports(q) {
		r.unsupported = append(r.unsupported, fmt.Sprintf("%s (p%g of %d samples)", name, q*100, h.n()))
	}
	return metric{h.ms(q), "ms", h.n()}
}

// quiet books the quiet-half median of a request class: the mean, over
// the quieter half of the run's slices, of the slice's median latency.
func (r *report) quiet(name string, s *series) {
	m := s.sliceMedians()
	r.endToEnd[name] = metric{quiet(m), "ms", len(m)}
}

func (r *report) layerQuantile(name string, h *hist, q float64) { r.layers[name] = r.pct(name, h, q) }

// spec is BENCHMARK.json, the contract the printed names must match.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// conform checks the report against the contract: every end_to_end metric
// measured, in its declared unit and (on a full run) positive; every
// percentile (on a full run) supported by its sample; no metric outside
// the contract; and on a traced run every per_layer metric present, where
// a layer the workload does not exercise is filled in as 0 and booked as
// bypassed. A smoke run is too short for tails: it flags what a full run
// would refuse.
func (r *report) conform(s *spec, traced, full bool) error {
	if len(r.unsupported) > 0 {
		msg := "fewer than ten samples beyond: " + strings.Join(r.unsupported, ", ")
		if full {
			return fmt.Errorf("%s: %s", r.workload, msg)
		}
		r.flags = append(r.flags, "smoke: "+msg)
	}
	for _, m := range s.EndToEnd {
		g, ok := r.endToEnd[m.Name]
		switch {
		case !ok:
			return fmt.Errorf("end_to_end metric %q was not measured on %s", m.Name, r.workload)
		case g.Unit != m.Unit:
			return fmt.Errorf("end_to_end metric %q has unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		case full && (!(g.Value > 0) || math.IsInf(g.Value, 0)):
			return fmt.Errorf("end_to_end metric %q is %v on %s: it must be a positive measurement", m.Name, g.Value, r.workload)
		}
	}
	if len(r.endToEnd) != len(s.EndToEnd) {
		return fmt.Errorf("%d end_to_end metrics measured, BENCHMARK.json names %d", len(r.endToEnd), len(s.EndToEnd))
	}
	units := make(map[string]string, len(s.PerLayer))
	for _, m := range s.PerLayer {
		units[m.Name] = m.Unit
		if _, ok := r.layers[m.Name]; !ok && traced {
			r.layers[m.Name] = metric{0, m.Unit, 0}
			r.bypassed[m.Name] = true
		}
	}
	for name, g := range r.layers {
		switch unit, ok := units[name]; {
		case !ok:
			return fmt.Errorf("per_layer metric %q was measured but is not in BENCHMARK.json", name)
		case g.Unit != unit:
			return fmt.Errorf("per_layer metric %q has unit %q, BENCHMARK.json says %q", name, g.Unit, unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			return fmt.Errorf("per_layer metric %q is %v on %s", name, g.Value, r.workload)
		}
	}
	return nil
}

// print writes the human-readable table: every metric by name with its
// unit, the sample count behind it and, for end-to-end metrics, the
// regression bound.
func (r *report) print(w io.Writer, s *spec) {
	fmt.Fprintf(w, "\n== %s ==\n", r.workload)
	fmt.Fprintf(w, "requests: %d attempted, %d failed, %d over their latency limit\n", r.attempted, r.failed, r.overLimit)
	for _, f := range r.flags {
		fmt.Fprintf(w, "FLAG: %s\n", f)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w, "end to end:")
	for _, m := range s.EndToEnd {
		g := r.endToEnd[m.Name]
		sign := "+"
		if m.Better == "higher" {
			sign = "-"
		}
		fmt.Fprintf(w, "  %-28s %14.4f %-8s n=%-6d bound %s%.0f%%\n", m.Name, g.Value, g.Unit, g.N, sign, m.Bound*100)
	}
	fmt.Fprintln(w, "per layer:")
	var names, bypassed []string
	for name := range r.layers {
		if r.bypassed[name] {
			bypassed = append(bypassed, name)
		} else {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	sort.Strings(bypassed)
	for _, name := range names {
		g := r.layers[name]
		n := ""
		if g.N > 0 {
			n = fmt.Sprintf("n=%d", g.N)
		}
		fmt.Fprintf(w, "  %-40s %16.4f %-10s %s\n", name, g.Value, g.Unit, n)
	}
	if len(bypassed) > 0 {
		fmt.Fprintf(w, "bypassed by this workload (0 in the result line): %s\n", strings.Join(bypassed, " "))
	}
}

// resultLine is the driver's contract: one JSON object, last on stdout.
func (r *report) resultLine(traced bool) string {
	src := r.endToEnd
	if traced {
		src = r.layers
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val, len(src))
	for name, m := range src {
		metrics[name] = val{m.Value, m.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // finite numbers and strings only
	}
	return string(b)
}
