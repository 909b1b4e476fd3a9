package main

import (
	"math/rand"
	"testing"
	"time"
)

// TestPaceCountsStalls drives the open-loop schedule with a fire that
// stalls once, the way a blocked Submit or a descheduled generator
// would. Requests due during the stall go out late, the lateness is
// recorded, and latency from the due time includes the wait while
// latency from the send does not.
func TestPaceCountsStalls(t *testing.T) {
	const gap, stall, service = 10 * time.Millisecond, 35 * time.Millisecond, time.Millisecond
	due := []time.Duration{0, gap, 2 * gap, 3 * gap, 8 * gap}
	var late, fromDue, fromSend []time.Duration
	start := time.Now()
	pace(start, due, func(i int, at, sub time.Time) {
		if want := start.Add(due[i]); !at.Equal(want) {
			t.Errorf("request %d: due %v, want %v", i, at.Sub(start), due[i])
		}
		late = append(late, sub.Sub(at))
		end := sub.Add(service) // the system answers in 1 ms
		fromDue = append(fromDue, time.Duration(latencyFromDue(at, end)*1e3))
		fromSend = append(fromSend, end.Sub(sub))
		if i == 1 {
			time.Sleep(stall)
		}
	})
	// Request 2 was due 10 ms after request 1 but could go out only when
	// the 35 ms stall ended.
	if late[2] < stall-gap {
		t.Errorf("request 2 lateness %v, want at least %v", late[2], stall-gap)
	}
	if fromDue[2] < stall-gap+service {
		t.Errorf("request 2 latency from due %v, want at least %v", fromDue[2], stall-gap+service)
	}
	if fromSend[2] != service {
		t.Errorf("request 2 latency from send %v, want %v", fromSend[2], service)
	}
	if late[3] < stall-2*gap {
		t.Errorf("request 3 lateness %v, want at least %v", late[3], stall-2*gap)
	}
	// Request 4 is due long after the stall: the generator caught up.
	if late[4] > gap {
		t.Errorf("request 4 lateness %v after the generator caught up", late[4])
	}
}

func TestArrivalsArePoissonAndSeeded(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(3)), 2000, 2*time.Second)
	b := arrivals(rand.New(rand.NewSource(3)), 2000, 2*time.Second)
	if len(a) != len(b) {
		t.Fatal("same seed, different schedules")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different schedules")
		}
		if a[i] < 0 || a[i] >= 2*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v out of order or range", i, a[i])
		}
	}
	// 4000 expected; a Poisson count's standard deviation is ~63.
	if n := len(a); n < 3700 || n > 4300 {
		t.Fatalf("%d arrivals at 2000/s over 2 s", n)
	}
}

func TestJudge(t *testing.T) {
	const limit = 100 * time.Millisecond
	ok := func(v stepVerdict) bool { return v.pass }
	for _, c := range []struct {
		name     string
		rejected int64
		failed   int64
		served   float64
		growth   float64
		p99      time.Duration
		pass     bool
	}{
		{"meets the service level", 0, 0, 1, 0, 5 * time.Millisecond, true},
		{"99% served is enough", 0, 0, 0.99, 0, 5 * time.Millisecond, true},
		{"one rejection", 1, 0, 1, 0, 5 * time.Millisecond, false},
		{"one failed request", 0, 1, 1, 0, 5 * time.Millisecond, false},
		{"under 99% served on time", 0, 0, 0.985, 0, 5 * time.Millisecond, false},
		{"backlog grows", 0, 0, 1, 0.06 * 5000, 5 * time.Millisecond, false},
		{"backlog wobbles", 0, 0, 1, 0.04 * 5000, 5 * time.Millisecond, true},
		{"p99 over the limit", 0, 0, 1, 0, limit + time.Millisecond, false},
		{"p99 at the limit", 0, 0, 1, 0, limit, true},
	} {
		if got := judge(5000, c.rejected, c.failed, c.served, c.growth, c.p99, limit); ok(got) != c.pass {
			t.Errorf("%s: pass = %v (%s), want %v", c.name, got.pass, got.reason, c.pass)
		}
	}
}

func TestBacklogGrowth(t *testing.T) {
	p := &phaseStats{dur: time.Second}
	for i := 0; i < 200; i++ { // every 5 ms over 1 s, growing by 1 per sample
		p.backlog = append(p.backlog, i)
	}
	// 200 per second, measured between the first and the last quarter.
	if g := p.backlogGrowth(); g < 190 || g > 210 {
		t.Fatalf("growth = %v, want ~200/s", g)
	}
	flat := &phaseStats{dur: time.Second, backlog: make([]int, 200)}
	if g := flat.backlogGrowth(); g != 0 {
		t.Fatalf("flat backlog growth = %v", g)
	}
}

// fakeStep returns a ladder step against a server whose capacity is
// capacity req/s: at or below it every request is served on time;
// above it a tenth is late and the backlog grows.
func fakeStep(capacity float64, seen *[]float64) func(float64) *phaseStats {
	return func(rate float64) *phaseStats {
		*seen = append(*seen, rate)
		ps := &phaseStats{rate: rate, dur: time.Second, offered: 1000, onTime: 1000}
		for i := 0; i < 1000; i++ {
			ps.lat = append(ps.lat, 800)
		}
		if rate > capacity {
			ps.onTime = 900
			for i := 0; i < 200; i++ {
				ps.backlog = append(ps.backlog, 10*i)
			}
		}
		return ps
	}
}

func TestLadder(t *testing.T) {
	for _, capacity := range []float64{2500, 4000, 5000, 6100, 8500, 20000} {
		var seen []float64
		got := ladder(serveBaseRate, fakeStep(capacity, &seen), newReport(discard{}))
		if got > capacity {
			t.Errorf("capacity %v: max_rps %v above capacity", capacity, got)
		}
		switch {
		case capacity >= ladderRates[len(ladderRates)-1]:
			if got != ladderRates[len(ladderRates)-1] {
				t.Errorf("capacity %v: max_rps %v, want the top of the ladder", capacity, got)
			}
		case capacity < ladderRates[0]:
			// Bisection between the fallback rate and the first step.
			if got < serveBaseRate || got < capacity-(ladderRates[0]-serveBaseRate)/4 {
				t.Errorf("capacity %v: max_rps %v too low", capacity, got)
			}
		default:
			if got < capacity*0.96 {
				t.Errorf("capacity %v: max_rps %v more than 4%% below capacity (steps %v)", capacity, got, seen)
			}
		}
	}
}

// discard is an io.Writer that drops the report's lines.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
