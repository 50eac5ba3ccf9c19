package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. The spans of one replayed request
// share an op id; Parent is the id of the span the call was made from
// (0 for a request's root). Units is the work the call did — updates,
// items, bytes, frames — so per-unit costs are measured where the work
// happens.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Units  float64 `json:"units,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// The replay is single-threaded, so there is no locking.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op starts a new request and returns its id.
func (t *tracer) op() int { t.ops++; return t.ops }

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int, units float64) {
	s := &t.spans[id-1]
	s.End, s.Units = int64(time.Since(t.t0)), units
}

// call times fn as one span.
func (t *tracer) call(name string, parent, op int, units float64, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id, units)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that child spans cover (overlapping children are counted
// once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerAgg sums what the spans of one name did.
type layerAgg struct {
	calls  int
	self   time.Duration // Σ self time
	total  time.Duration // Σ duration, children included
	units  float64       // Σ units
	median time.Duration // median span duration
}

func aggregate(spans []span) map[string]layerAgg {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	out := map[string]layerAgg{}
	for _, s := range spans {
		a := out[s.Name]
		a.calls++
		a.self += time.Duration(self[s.ID])
		a.total += time.Duration(s.End - s.Start)
		a.units += s.Units
		out[s.Name] = a
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
	}
	for name, a := range out {
		a.median = time.Duration(median(durs[name]))
		out[name] = a
	}
	return out
}

// perUnit is Σ self time ÷ Σ units, in the given time unit.
func (a layerAgg) perUnit(unit time.Duration) float64 {
	return ratio(float64(a.self)/float64(unit), a.units)
}

// totalPerUnit is Σ duration, children included, ÷ Σ units.
func (a layerAgg) totalPerUnit(unit time.Duration) float64 {
	return ratio(float64(a.total)/float64(unit), a.units)
}

// medianIn is the median span duration in the given time unit.
func (a layerAgg) medianIn(unit time.Duration) float64 {
	return float64(a.median) / float64(unit)
}

// write stores the spans as bench/out/trace-<workload>.json.
func (t *tracer) write(outDir, workload string, seed int64) error {
	f, err := os.Create(filepath.Join(outDir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{"workload": workload, "seed": seed, "spans": t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
