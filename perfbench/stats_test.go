package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {9, 0}, {19, 0},
		{20, 500},
		{39, 500}, {40, 750},
		{99, 750}, {100, 900},
		{199, 900}, {200, 950},
		{999, 950}, {1000, 990},
		{9999, 990}, {10000, 999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestTailHasTenBeyond checks the sample-count rule on the reported
// value itself: at least minBeyond samples lie strictly above it.
func TestTailHasTenBeyond(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 20; n <= 5000; n += 37 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(i) // distinct, so "beyond" is unambiguous
		}
		rng.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		s := summarize(vs)
		beyond := 0
		for _, v := range vs {
			if v > s.Tail {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Fatalf("n=%d: tail p%s=%v has %d samples beyond it", n, perMille(s.TailPM), s.Tail, beyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	vs := make([]float64, 1000)
	for i := range vs {
		vs[len(vs)-1-i] = float64(i + 1)
	}
	s := summarize(vs)
	if s.N != 1000 || s.P50 != 500 || s.P90 != 900 || s.P99 != 990 || s.TailPM != 990 || s.Tail != 990 || s.Mean != 500.5 {
		t.Fatalf("summarize(1..1000) = %+v", s)
	}
	if !s.p99Supported() {
		t.Fatal("1000 samples must support a p99")
	}
	if small := summarize([]float64{3, 1, 2}); small.P50 != 2 || small.TailPM != 0 || small.p99Supported() {
		t.Fatalf("summarize of 3 samples = %+v", small)
	}
	if (Summary{}) != summarize(nil) {
		t.Fatal("empty series must give the zero Summary")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
}

// TestSeriesMedianOverWindows checks that one window disturbed from
// outside moves the reported median by little.
func TestSeriesMedianOverWindows(t *testing.T) {
	start := time.Now()
	d := 5 * time.Second
	s := newSeries(start, d)
	for w := 0; w < phaseWindows; w++ {
		at := start.Add(time.Duration(w) * d / phaseWindows)
		for i := 0; i < 1000; i++ {
			v := 100.0
			if w == 2 {
				v = 10000 // a window hit by a stall
			}
			s.add(at, v)
		}
	}
	// Samples stamped after the phase belong to its last window.
	s.add(start.Add(2*d), 100)
	w := s.summary()
	if w.P50 != 100 || w.P90 != 100 || w.P99 != 100 || w.Mean != 100 {
		t.Fatalf("median over windows = p50 %v p90 %v p99 %v mean %v, want 100", w.P50, w.P90, w.P99, w.Mean)
	}
	if w.Phase.P99 != 10000 || w.Phase.N != 5001 {
		t.Fatalf("whole phase = %+v", w.Phase)
	}
	if !w.p99Supported() {
		t.Fatal("1000 samples per window must support a p99")
	}
	if r := s.rate(); r != 100*1000/1.0 {
		t.Fatalf("rate = %v", r)
	}
}

func TestSteadyAfter(t *testing.T) {
	// Warm-up traffic one TLP heavier for 255 ops, then steady, with a
	// spike recurring every 64 ops throughout.
	var counts []uint64
	for i := 0; i < 600; i++ {
		c := uint64(44)
		if i < 255 {
			c = 45
		}
		if i%64 == 18 {
			c += 2
		}
		counts = append(counts, c)
	}
	if got := steadyAfter(counts, 64, 0); got != 255 {
		t.Fatalf("steadyAfter = %d, want 255", got)
	}
	// Without the window the recurring spike looks like a change.
	if got := steadyAfter(counts, 1, 0); got <= 255 {
		t.Fatalf("steadyAfter without window = %d, want past 255", got)
	}
	// Sessions: a 2% drop after session 8, then jitter of a few TLPs
	// that an exact comparison would take for a change.
	sessions := []uint64{1362, 1366, 1366, 1368, 1368, 1368, 1368, 1365, 1338, 1338, 1336, 1336,
		1334, 1334, 1336, 1338, 1338, 1340, 1338, 1336, 1334, 1336}
	if got := steadyAfter(sessions, 4, 0.005); got != 8 {
		t.Fatalf("steadyAfter(sessions) = %d, want 8", got)
	}
	if got := steadyAfter(sessions, 4, 0); got == 8 {
		t.Fatal("an exact comparison should not settle on the jittering sessions")
	}
	if got := steadyAfter(counts[:10], 64, 0); got != 10 {
		t.Fatalf("too short a series = %d, want its length", got)
	}
}
