package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// hist is a log-bucketed latency histogram: bucket i holds durations in
// [g^i, g^(i+1)) nanoseconds with g = 1.01, so a quantile read back from a
// bucket's geometric midpoint is within 0.5% of the recorded value. The
// range 1ns..~3h needs under 3000 buckets, kept as one flat array. Safe
// for concurrent use: several client goroutines of one request class
// record into the same histogram.
type hist struct {
	mu     sync.Mutex
	counts [histBuckets]uint32
	total  int
}

const (
	histGrowth  = 1.01
	histBuckets = 3000
)

var histLnG = math.Log(histGrowth)

func (h *hist) record(d time.Duration) {
	ns := float64(d.Nanoseconds())
	if ns < 1 {
		ns = 1
	}
	i := int(math.Log(ns) / histLnG)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.mu.Lock()
	h.counts[i]++
	h.total++
	h.mu.Unlock()
}

// n is the sample count.
func (h *hist) n() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// supports reports whether quantile q may be quoted: the choosing-metrics
// rule asks for at least ten samples beyond a reported percentile (the
// median needs only one sample).
func (h *hist) supports(q float64) bool {
	n := float64(h.n())
	if q <= 0.5 {
		return n >= 1
	}
	return n*(1-q) >= 10-1e-9 // 100 samples do support p90, whatever 1-0.9 rounds to
}

// ms returns quantile q in milliseconds (0 for an empty histogram). It
// does not judge whether the sample supports q: a reported percentile goes
// through report.quantile, which refuses an unsupported one.
func (h *hist) ms(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	rank := int(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen >= rank {
			return math.Exp((float64(i)+0.5)*histLnG) / 1e6
		}
	}
	return 0
}

// median of a small exact sample (set-up times, slices).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// series is the sample log of one request class: a pooled histogram for
// the percentiles of the whole run and, per slice of each round's recorded
// window, the samples that completed in it.
//
// The host this runs on is disturbed in bursts: a neighbour that slows a
// core by a third for a second or so at a time, now and then a stall of
// the whole guest (README "Steadiness"). A slice (sizing.slice, 2 s on a
// full run) is long enough for a median of its own and short enough that
// the disturbed stretches of a run fall into some slices and not others.
type series struct {
	hist
	smu    sync.Mutex
	origin time.Time // start of the current round's recorded window
	width  time.Duration
	base   int // index of the current round's first slice
	limit  int // one past the current round's last slice
	slices [][]float64
}

// begin opens a round whose recorded window is n slices of width from
// origin, and returns the index of its first slice. Slices of earlier
// rounds are kept.
func (s *series) begin(origin time.Time, width time.Duration, n int) int {
	s.smu.Lock()
	defer s.smu.Unlock()
	s.origin, s.width, s.base = origin, width, len(s.slices)
	s.limit = s.base + n
	for len(s.slices) < s.limit {
		s.slices = append(s.slices, nil)
	}
	return s.base
}

// recordAt books a sample of took that completed at the instant at. A
// sample outside the round's slices (the request a loop was still in when
// its window closed) counts in the pooled histogram only.
func (s *series) recordAt(at time.Time, took time.Duration) {
	s.hist.record(took)
	s.smu.Lock()
	defer s.smu.Unlock()
	if s.width == 0 || at.Before(s.origin) {
		return
	}
	if i := s.base + int(at.Sub(s.origin)/s.width); i < s.limit {
		s.slices[i] = append(s.slices[i], ms(took))
	}
}

// minSliceSamples is the fewest samples a slice needs for its median to
// count.
const minSliceSamples = 5

// sliceMedians returns the median of every slice that has the samples for
// one.
func (s *series) sliceMedians() []float64 {
	s.smu.Lock()
	defer s.smu.Unlock()
	var out []float64
	for _, sl := range s.slices {
		if len(sl) >= minSliceSamples {
			out = append(out, median(sl))
		}
	}
	return out
}

// sliceCounts returns the number of samples of every slice.
func (s *series) sliceCounts() []float64 {
	s.smu.Lock()
	defer s.smu.Unlock()
	out := make([]float64, len(s.slices))
	for i, sl := range s.slices {
		out[i] = float64(len(sl))
	}
	return out
}

func (s *series) sliceCount(i int) int {
	s.smu.Lock()
	defer s.smu.Unlock()
	if i < 0 || i >= len(s.slices) {
		return 0
	}
	return len(s.slices[i])
}

// quiet is the mean of the lower half of per-slice values: the level of
// the quieter half of the run. Interference from the other tenants of the
// host only ever adds time, so the low side of a run's slices is the
// program's own cost and the high side is the neighbours'; a change to the
// program moves every slice, the quiet ones included. (A mean, not a
// quantile: CPU time comes in 10 ms ticks, and a quantile of ten values
// made of ticks reads the same on run after run.)
func quiet(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[:(len(s)+1)/2]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}
