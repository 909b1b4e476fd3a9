package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailPerMille lists the tail percentiles the benchmark may report, in
// per-mille and highest first. A percentile is reported only when at
// least minBeyond samples lie beyond it.
var tailPerMille = []int{999, 990, 950, 900, 750, 500}

// minBeyond is the number of samples a reported percentile must have
// beyond it.
const minBeyond = 10

// supportedTail returns the highest percentile (in per-mille) of
// tailPerMille with at least minBeyond of n samples beyond it, or 0 when
// n is too small for any.
func supportedTail(n int) int {
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= minBeyond*1000 {
			return pm
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile pm (per-mille) of
// sorted, which must be non-empty and ascending.
func percentile(sorted []float64, pm int) float64 {
	n := len(sorted)
	idx := (pm*n+999)/1000 - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// Summary condenses one series of timings: its median, its 90th and
// 99th percentiles, the highest percentile the sample supports, and the
// sample count.
type Summary struct {
	N      int
	P50    float64
	P90    float64
	P99    float64
	TailPM int // per-mille of Tail; 0 when N < minBeyond
	Tail   float64
	Mean   float64
}

// summarize sorts samples in place and summarizes them. An empty series
// gives the zero Summary.
func summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	sort.Float64s(samples)
	var sum float64
	for _, v := range samples {
		sum += v
	}
	s := Summary{
		N:    len(samples),
		P50:  percentile(samples, 500),
		P90:  percentile(samples, 900),
		P99:  percentile(samples, 990),
		Mean: sum / float64(len(samples)),
	}
	if s.TailPM = supportedTail(s.N); s.TailPM > 0 {
		s.Tail = percentile(samples, s.TailPM)
	}
	return s
}

// p99Supported reports whether the sample is large enough for its p99.
func (s Summary) p99Supported() bool { return s.TailPM >= 990 }

// String renders the summary with its sample count, as every timing in
// the report is printed.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	str := fmt.Sprintf("p50=%.4g p90=%.4g p99=%.4g n=%d", s.P50, s.P90, s.P99, s.N)
	if !s.p99Supported() {
		str += " (p99 unsupported)"
	}
	if s.TailPM > 0 {
		str += fmt.Sprintf(" highest-supported=p%s:%.4g", perMille(s.TailPM), s.Tail)
	}
	return str
}

func perMille(pm int) string {
	if pm%10 == 0 {
		return fmt.Sprintf("%d", pm/10)
	}
	return fmt.Sprintf("%.1f", float64(pm)/10)
}

// median returns the median of a copy of vs (NaN for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// mean returns the arithmetic mean of vs (0 for none).
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// series collects one phase's timing samples into equal time windows,
// so that a run can report the median over windows of each window's
// percentile: one window hit by a burst of interference from outside
// the program then moves the result by little. A series is used by one
// goroutine; merge combines them.
type series struct {
	start time.Time
	span  time.Duration
	win   [][]float64
}

// phaseWindows is the number of windows a timed phase is split into.
const phaseWindows = 5

func newSeries(start time.Time, d time.Duration) *series {
	return &series{start: start, span: d / phaseWindows, win: make([][]float64, phaseWindows)}
}

// add records v for the window that holds at; times outside the phase
// go to its first or last window.
func (s *series) add(at time.Time, v float64) {
	w := 0
	if s.span > 0 {
		w = int(at.Sub(s.start) / s.span)
	}
	w = min(max(w, 0), len(s.win)-1)
	s.win[w] = append(s.win[w], v)
}

func (s *series) merge(o *series) {
	for i := range s.win {
		s.win[i] = append(s.win[i], o.win[i]...)
	}
}

// all returns every sample of the phase.
func (s *series) all() []float64 {
	var out []float64
	for _, w := range s.win {
		out = append(out, w...)
	}
	return out
}

// windowed is a series' summary: the medians over windows of each
// window's p50, p90, p99 and mean, and the summary of the whole phase.
type windowed struct {
	P50, P90, P99, Mean float64
	Phase               Summary
	// winP90 is each window's p90.
	winP90 []float64
	// minN is the smallest window's sample count.
	minN int
}

func (s *series) summary() windowed {
	var p50, p90, p99, means []float64
	w := windowed{Phase: summarize(s.all()), minN: -1}
	for _, win := range s.win {
		if len(win) == 0 {
			continue
		}
		ws := summarize(append([]float64(nil), win...))
		p50, p90, p99 = append(p50, ws.P50), append(p90, ws.P90), append(p99, ws.P99)
		means = append(means, ws.Mean)
		if w.minN < 0 || ws.N < w.minN {
			w.minN = ws.N
		}
	}
	w.P50, w.P90, w.P99, w.Mean = median(p50), median(p90), median(p99), median(means)
	w.winP90 = p90
	return w
}

// p99Supported reports whether every window is large enough for its
// p99.
func (w windowed) p99Supported() bool { return supportedTail(w.minN) >= 990 }

func (w windowed) String() string {
	return fmt.Sprintf("median over %d windows p50=%.4g p90=%.4g p99=%.4g (window p90s %.4g, smallest window n=%d); whole phase %s",
		phaseWindows, w.P50, w.P90, w.P99, w.winP90, w.minN, w.Phase.String())
}

// rate returns the median over windows of each window's sum of values
// per second.
func (s *series) rate() float64 {
	var rates []float64
	for _, win := range s.win {
		var sum float64
		for _, v := range win {
			sum += v
		}
		rates = append(rates, sum/s.span.Seconds())
	}
	return median(rates)
}
