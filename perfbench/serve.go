package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ccai"
	"ccai/internal/telemetry"
	"ccai/internal/trace"
	"ccai/internal/xpu"
)

// serve-mix: an open loop of independent users. Requests arrive as a
// seeded Poisson process and go through Scheduler.Submit to a 4-tenant
// MultiPlatform with the telemetry plane attached. Sizes run from 1 to
// 64 KiB, skewed small; tenant popularity is skewed so DRR fairness is
// exercised; the kernels are KernelXOR and KernelChecksum. Fixed
// per-request cost, the tenant datapath, DRR queueing and telemetry on
// 4 pipelines sharing the host's cores dominate here.
//
// The size law, the tenant shares and the checksum share below are
// synthetic choices made to exercise these layers, not taken from
// observed traffic.

const (
	serveTenants = 4
	// serveBaseRate is the fixed offered load of the latency phase,
	// 20-30% of capacity on a 2-vCPU host. At serveAuxRate, 40-55% of
	// capacity, queueing amplifies the host's own speed drift into the
	// tail far more (README.md gives the spreads).
	serveBaseRate = 1000.0
	// serveAuxRate is a second, heavier fixed load; its median is
	// reported as the latency at that rate.
	serveAuxRate = 2000.0
	// serveQueueDepth bounds each tenant's ingress queue.
	serveQueueDepth = 1024
	// serveWarmup is the number of 1 KiB tasks each tenant runs during
	// set-up: past the task count after which per-task host-bus
	// traffic stops changing (the traced run checks it).
	serveWarmup      = 320
	serveWarmupBytes = 1 << 10
	// serveP99Limit is the ladder's latency limit on a step's p99.
	serveP99Limit = 250 * time.Millisecond
	// serveChecksumShare is the share of KernelChecksum requests.
	serveChecksumShare = 0.3
)

// tenantShare is each tenant's share of requests.
var tenantShare = []float64{0.4, 0.3, 0.2, 0.1}

// ladderRates are the ladder's fixed upward steps in req/s, 15% apart;
// after the first step that fails, the ladder bisects between it and
// the last step that passed (or serveBaseRate).
var ladderRates = []float64{3000, 3450, 3970, 4560, 5250, 6030, 6940, 7980, 9180, 10560, 12140}

// ladderBisections is the number of bisection steps after the upward
// steps.
const ladderBisections = 2

// serveReq is one generated request.
type serveReq struct {
	tenant int
	taskSpec
}

// serveGen draws the seeded request mix.
type serveGen struct {
	rng  *rand.Rand
	pool []byte
}

func newServeGen(seed uint64) *serveGen {
	rng := rand.New(rand.NewSource(int64(seed)))
	pool := make([]byte, 1<<20+taskOutWindow)
	rng.Read(pool)
	return &serveGen{rng: rng, pool: pool}
}

func (g *serveGen) next() serveReq {
	u := g.rng.Float64()
	tenant := 0
	for tenant < len(tenantShare)-1 && u >= tenantShare[tenant] {
		u -= tenantShare[tenant]
		tenant++
	}
	return serveReq{tenant: tenant, taskSpec: g.task()}
}

// task draws one task. Its size in [1 KiB, 64 KiB] is 1 KiB x 2^(6u²)
// for u uniform in [0, 1): half the requests are under 3 KiB, one in
// five over 16 KiB.
func (g *serveGen) task() taskSpec {
	u := g.rng.Float64()
	size := int(1024 * math.Pow(2, 6*u*u))
	off := g.rng.Intn(len(g.pool) - size + 1)
	k := ccai.KernelXOR
	if g.rng.Float64() < serveChecksumShare {
		k = ccai.KernelChecksum
	}
	return taskSpec{in: g.pool[off : off+size], kernel: k, param: uint8(1 + g.rng.Intn(255))}
}

// serveRig is one serving chassis.
type serveRig struct {
	mp      *ccai.MultiPlatform
	s       *ccai.Scheduler
	mirrors []*deviceMirror
	host    *trace.Recorder // traced rigs only
}

func (r *serveRig) close() {
	_ = r.s.Shutdown(context.Background())
	r.mp.Close()
}

// buildServe assembles the chassis, establishes trust on every tenant,
// warms each tenant up with serveWarmup small tasks and starts the
// scheduler. A traced rig taps the host bus from the start, runs
// extra more warm-up tasks on tenant 0 and returns tenant 0's per-task
// host-bus TLP counts.
func buildServe(seed uint64, traced bool, extra int) (*serveRig, time.Duration, []uint64, int64, error) {
	start := time.Now()
	profiles := make([]xpu.Profile, serveTenants)
	for i := range profiles {
		profiles[i] = xpu.A100
	}
	mp, err := ccai.NewMultiPlatform(profiles, ccai.WithTelemetry(telemetry.Options{}))
	if err != nil {
		return nil, 0, nil, 0, err
	}
	rig := &serveRig{mp: mp}
	if traced {
		rig.host = trace.NewRecorder()
		mp.Host.AddTap(rig.host)
	}
	if err := mp.EstablishTrustAll(); err != nil {
		mp.Close()
		return nil, 0, nil, 0, err
	}
	var counts []uint64
	var failed int64
	gen := newTaskGen(seed^0x5eed, serveWarmupBytes)
	for i, t := range mp.Tenants {
		m := newDeviceMirror()
		rig.mirrors = append(rig.mirrors, m)
		n := serveWarmup
		if i == 0 {
			n += extra
		}
		for j := 0; j < n; j++ {
			ts := gen.next()
			var before uint64
			if traced {
				before = rig.host.Packets()
			}
			out, err := t.RunTask(ccai.Task{Input: ts.in, Kernel: ts.kernel, Param: ts.param})
			if err != nil || !m.check(ts.kernel, ts.param, ts.in, out) {
				failed++
			}
			if traced && i == 0 {
				counts = append(counts, rig.host.Packets()-before)
			}
		}
	}
	rig.s, err = mp.NewScheduler(ccai.SchedulerConfig{QueueDepth: serveQueueDepth})
	if err != nil {
		mp.Close()
		return nil, 0, nil, 0, err
	}
	return rig, time.Since(start), counts, failed, nil
}

// inflight is one submitted request awaiting completion.
type inflight struct {
	req serveReq
	due time.Time
	sub time.Time
	h   *ccai.Handle
}

// phaseStats is what one open-loop phase measured.
type phaseStats struct {
	rate     float64
	dur      time.Duration
	offered  int64
	rejected int64 // ErrQueueFull at Submit
	failed   int64 // any other error, or wrong bytes
	lat      []float64
	late     []float64
	wait     []float64
	service  []float64
	// onTime counts requests that completed correctly before the window
	// plus serveP99Limit ended.
	onTime  int64
	backlog []int
	// per-tenant queue-wait sums (ns) and completion counts
	waitSum, count []int64
}

// servedShare is the share of the phase's offered requests that
// completed correctly before the phase's window plus serveP99Limit
// ended.
func (p *phaseStats) servedShare() float64 {
	if p.offered == 0 {
		return 1
	}
	return float64(p.onTime) / float64(p.offered)
}

// backlogGrowth is the backlog's growth in requests per second between
// the first and the last quarter of the phase's samples.
func (p *phaseStats) backlogGrowth() float64 {
	n := len(p.backlog)
	if n < 8 {
		return 0
	}
	q := n / 4
	var first, last float64
	for i := 0; i < q; i++ {
		first += float64(p.backlog[i])
		last += float64(p.backlog[n-q+i])
	}
	span := p.dur.Seconds() * float64(n-q) / float64(n)
	return (last - first) / float64(q) / span
}

// stepVerdict is the ladder's decision on one step.
type stepVerdict struct {
	pass   bool
	reason string
}

// judge decides whether a ladder step at rate met the service level:
// every request admitted, at least 99% of the requests offered served
// by the end of the step (plus the latency limit), a backlog that does
// not grow by more than 5% of the offered rate per second, and a p99
// within limit. A failed request counts against the step.
func judge(rate float64, rejected, failed int64, served, growth float64, p99 time.Duration, limit time.Duration) stepVerdict {
	switch {
	case rejected > 0:
		return stepVerdict{false, fmt.Sprintf("%d rejected", rejected)}
	case failed > 0:
		return stepVerdict{false, fmt.Sprintf("%d failed", failed)}
	case served < 0.99:
		return stepVerdict{false, fmt.Sprintf("served %.1f%% on time", 100*served)}
	case growth > 0.05*rate:
		return stepVerdict{false, fmt.Sprintf("backlog grew %.0f req/s", growth)}
	case p99 > limit:
		return stepVerdict{false, fmt.Sprintf("p99 %v over %v", p99, limit)}
	}
	return stepVerdict{true, "ok"}
}

func (p *phaseStats) verdict() stepVerdict {
	s := summarize(append([]float64(nil), p.lat...))
	return judge(p.rate, p.rejected, p.failed, p.servedShare(), p.backlogGrowth(),
		time.Duration(s.P99*1e3), serveP99Limit)
}

// arrivals returns the due offsets of a Poisson process of rate over
// d, drawn from rng.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*1e9))
	}
}

// pace runs the open-loop schedule: it calls fire for request i at
// start+due[i], sleeping until then, or at once when it is already
// late because an earlier fire or the host held it up. fire gets the
// due time and the time it was actually called, so that lateness is
// measured and not hidden: a stall delays every request due during it.
func pace(start time.Time, due []time.Duration, fire func(i int, at, sub time.Time)) {
	for i, off := range due {
		at := start.Add(off)
		if w := time.Until(at); w > 0 {
			time.Sleep(w)
		}
		fire(i, at, time.Now())
	}
}

// latencyFromDue is an open-loop request's latency in µs: from when it
// was due to be sent, not from when it was sent, so the wait a stall
// imposes on later requests counts.
func latencyFromDue(due, end time.Time) float64 { return us(end.Sub(due).Nanoseconds()) }

// openLoop offers rate req/s for d: one generator submits each request
// at its due time (or as soon after as it can), and one collector per
// tenant waits for that tenant's requests in submission order — the
// order the tenant's serial pipeline runs them in — timestamps each
// completion and checks its output against the tenant's device mirror.
// Latency is measured from the due time.
func (r *serveRig) openLoop(gen *serveGen, rate float64, d time.Duration) *phaseStats {
	ps := &phaseStats{rate: rate, dur: d, waitSum: make([]int64, serveTenants), count: make([]int64, serveTenants)}
	due := arrivals(gen.rng, rate, d)
	reqs := make([]serveReq, len(due))
	for i := range reqs {
		reqs[i] = gen.next()
	}

	type tenantStats struct {
		lat, wait, service []float64
		failed, onTime     int64
	}
	stats := make([]tenantStats, serveTenants)
	queues := make([]chan *inflight, serveTenants)
	var wg sync.WaitGroup
	start := time.Now()
	cutoff := start.Add(d + serveP99Limit)
	for i := range queues {
		// Sized to hold every request of the phase, so the generator
		// never blocks on a slow collector.
		queues[i] = make(chan *inflight, len(due)+1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &stats[i]
			for f := range queues[i] {
				<-f.h.Done()
				end := time.Now()
				out, err := f.h.Result()
				if err != nil || !r.mirrors[i].check(f.req.kernel, f.req.param, f.req.in, out) {
					st.failed++
					continue
				}
				wait := f.h.QueueWait()
				st.lat = append(st.lat, latencyFromDue(f.due, end))
				st.wait = append(st.wait, us(wait.Nanoseconds()))
				st.service = append(st.service, us((end.Sub(f.sub) - wait).Nanoseconds()))
				if end.Before(cutoff) {
					st.onTime++
				}
			}
		}(i)
	}
	stopSampler := make(chan struct{})
	sampled := make(chan []int)
	go func() {
		var b []int
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				b = append(b, r.s.Pending())
			case <-stopSampler:
				sampled <- b
				return
			}
		}
	}()

	ctx := context.Background()
	pace(start, due, func(i int, at, sub time.Time) {
		ps.late = append(ps.late, us(sub.Sub(at).Nanoseconds()))
		req := reqs[i]
		h, err := r.s.Submit(ctx, ccai.TenantTask{Tenant: req.tenant, Task: ccai.Task{Input: req.in, Kernel: req.kernel, Param: req.param}})
		ps.offered++
		switch {
		case errors.Is(err, ccai.ErrQueueFull):
			ps.rejected++
		case err != nil:
			ps.failed++
		default:
			queues[req.tenant] <- &inflight{req: req, due: at, sub: sub, h: h}
		}
	})
	if w := time.Until(start.Add(d)); w > 0 {
		time.Sleep(w)
	}
	close(stopSampler)
	ps.backlog = <-sampled
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	for i := range stats {
		st := &stats[i]
		ps.lat = append(ps.lat, st.lat...)
		ps.wait = append(ps.wait, st.wait...)
		ps.service = append(ps.service, st.service...)
		ps.failed += st.failed
		for _, w := range st.wait {
			ps.waitSum[i] += int64(w * 1e3)
		}
		ps.count[i] = int64(len(st.wait))
		ps.onTime += st.onTime
	}
	return ps
}

// account adds the phase's requests to the run's totals. Rejections in
// ladder steps above capacity are the ladder's signal, not failures;
// everywhere else a rejection is a failed request.
func (p *phaseStats) account(rep *report, rejectionsFail bool) {
	failed := p.failed
	if rejectionsFail {
		failed += p.rejected
	}
	rep.ops(p.offered, failed)
	if failed > 0 {
		rep.problem("serve-mix at %.0f req/s: %d of %d requests failed, were rejected or returned wrong bytes", p.rate, failed, p.offered)
	} else if p.failed > 0 {
		rep.problem("serve-mix ladder at %.0f req/s: %d requests failed or returned wrong bytes", p.rate, p.failed)
	}
}

// ladder finds the highest rate that meets the service level: upward
// steps through ladderRates, then ladderBisections bisections between
// the last pass and the first failure. step runs one step at a rate.
// It returns that rate, or lo when no step passed.
func ladder(lo float64, step func(rate float64) *phaseStats, rep *report) float64 {
	best, fail := lo, 0.0
	run := func(rate float64) bool {
		ps := step(rate)
		ps.account(rep, false)
		v := ps.verdict()
		rep.info("ladder %6.0f req/s: %-5v %s; %d offered, %s us", rate, v.pass, v.reason, ps.offered, summarize(ps.lat).String())
		return v.pass
	}
	for _, rate := range ladderRates {
		if !run(rate) {
			fail = rate
			break
		}
		best = rate
	}
	if fail == 0 {
		return best
	}
	for i := 0; i < ladderBisections; i++ {
		mid := (best + fail) / 2
		if run(mid) {
			best = mid
		} else {
			fail = mid
		}
	}
	return best
}

// serveParts is the number of freshly built chassis the base-rate
// latency phase is split over; each is followed by a part at the
// heavier rate.
const serveParts = 12

// runServe measures every phase on a freshly built chassis: serveParts
// parts at the base rate, as many at the heavier rate, and each ladder
// step. mem.Space keeps one spare backing per distinct
// allocation size, so a chassis serving byte-granular sizes retains
// memory with every new size it sees; a fresh chassis per phase keeps
// the run's footprint bounded and its phases comparable, while
// heap_live_mb still shows what one phase retained. Latencies are
// medians over parts. Every build is a set-up; setup_s is their median.
func runServe(cfg runConfig, rep *report) error {
	if cfg.trace {
		return traceServe(cfg, rep)
	}
	gen := newServeGen(cfg.seed)
	var setups []float64
	var buildErr error
	phase := func(rate float64, d time.Duration, atEnd func()) *phaseStats {
		rig, setup, _, failed, err := buildServe(cfg.seed, false, 0)
		if err != nil {
			buildErr = err
			return &phaseStats{rate: rate}
		}
		defer rig.close()
		rep.ops(serveTenants*serveWarmup, failed)
		setups = append(setups, setup.Seconds())
		// Start every part from a collected heap, so garbage from the
		// build does not fall due inside the timed window.
		runtime.GC()
		ps := rig.openLoop(gen, rate, d)
		if atEnd != nil {
			atEnd()
		}
		return ps
	}

	var p50s, p90s, p99s, auxP50s []float64
	var heap float64
	for i := 0; i < serveParts; i++ {
		ps := phase(serveBaseRate, cfg.duration(0.48/serveParts), func() { heap = heapLiveMiB() })
		ps.account(rep, true)
		s := summarize(ps.lat)
		if !s.p99Supported() {
			rep.info("warning: %d requests are too few for a p99", s.N)
		}
		rep.info("%4.0f req/s part %d: %s; %s us; generator lateness %s us",
			serveBaseRate, i, ps.verdict().reason, s.String(), summarize(ps.late).String())
		p50s, p90s, p99s = append(p50s, s.P50), append(p90s, s.P90), append(p99s, s.P99)
		aux := phase(serveAuxRate, cfg.duration(0.12/serveParts), nil)
		aux.account(rep, true)
		a := summarize(aux.lat)
		rep.info("%4.0f req/s part %d: %s us", serveAuxRate, i, a.String())
		auxP50s = append(auxP50s, a.P50)
	}
	maxRPS := ladder(serveBaseRate, func(rate float64) *phaseStats {
		return phase(rate, cfg.duration(0.05), nil)
	}, rep)
	if buildErr != nil {
		return buildErr
	}

	rep.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups: 4-tenant chassis with telemetry, EstablishTrustAll, %d warm-up tasks per tenant, scheduler", len(setups), serveWarmup))
	rep.set("p50_us", median(p50s), fmt.Sprintf("req_p50_ms x 1000 at %.0f req/s from the due time, median over %d chassis: %.4g", serveBaseRate, serveParts, p50s))
	rep.set("p90_us", median(p90s), fmt.Sprintf("req_p90_ms x 1000, median over %d chassis: %.4g; req_p99_ms = %.6g ms (median over chassis: %.4g)",
		serveParts, p90s, median(p99s)/1e3, p99s))
	rep.set("rate_per_s", maxRPS, fmt.Sprintf("max_rps: highest ladder rate with no rejection, >= 99%% served on time, no backlog growth, p99 <= %v", serveP99Limit))
	rep.set("aux_p50_us", median(auxP50s), fmt.Sprintf("request p50 at %.0f req/s from the due time, median over %d chassis: %.4g", serveAuxRate, len(auxP50s), auxP50s))
	rep.set("heap_live_mb", heap, fmt.Sprintf("live heap after a GC at the end of the last %.0f req/s part, its chassis still open", serveBaseRate))
	return nil
}

// traceServe is the traced run: an untraced phase for the runtime
// metrics, then a freshly built chassis with a tapped host bus that
// serves the same load while the scheduler is sampled, then the parity
// check and the replica probe on tenant 0.
func traceServe(cfg runConfig, rep *report) error {
	rig, _, _, failed, err := buildServe(cfg.seed, false, 0)
	if err != nil {
		return err
	}
	rep.ops(serveTenants*serveWarmup, failed)
	gen := newServeGen(cfg.seed)
	mem := startMem()
	untraced := rig.openLoop(gen, serveBaseRate, cfg.duration(0.2))
	mem.report(rep, untraced.offered, "request")
	untraced.account(rep, true)
	rig.close()
	u := summarize(untraced.lat)

	const extra = 2 * steadyWindow
	rig, _, warm, failed, err := buildServe(cfg.seed, true, extra)
	if err != nil {
		return err
	}
	defer rig.close()
	rep.ops(serveTenants*serveWarmup+extra, failed)
	steady := steadyAfter(warm, steadyWindow, 0)
	rep.set("warmup.steady_after_ops", float64(steady),
		fmt.Sprintf("tenant 0 host-bus TLPs per warm-up task over %d tasks: first %d, last %d; the set-up warms up %d",
			len(warm), warm[0], warm[len(warm)-1], serveWarmup))
	if steady > serveWarmup {
		rep.problem("serve-mix: per-task host-bus traffic still changed at task %d, after the %d-task warm-up", steady, serveWarmup)
	}

	var dps []datapath
	for _, t := range rig.mp.Tenants {
		dps = append(dps, datapath{a: t.Adaptor, d: t.Driver, sc: t.SC})
	}
	auth0, reposts0 := recoveries(dps)
	before := snapshotAll(dps, rig.host)
	ps := rig.openLoop(gen, serveBaseRate, cfg.duration(0.2))
	reportCounts(rep, snapshotAll(dps, rig.host).sub(before), ps.offered, "request, all tenants,")
	ps.account(rep, true)
	lat, wait, svc, late := summarize(ps.lat), summarize(ps.wait), summarize(ps.service), summarize(ps.late)
	rep.info("sched.queue_wait_p50_us = %.4g us, sched.queue_wait_p99_us = %.4g us (Handle.QueueWait; %s)", wait.P50, wait.P99, wait.String())
	rep.info("sched.service_p50_us = %.4g us (dispatch to completion; %s)", svc.P50, svc.String())
	rep.info("gen.late_p99_ms = %.4g ms (generator lateness; %s us)", late.P99/1e3, late.String())
	backlogMax := 0
	for _, b := range ps.backlog {
		backlogMax = max(backlogMax, b)
	}
	rep.set("sched.backlog_max", float64(backlogMax), fmt.Sprintf("Scheduler.Pending sampled every 5 ms at %.0f req/s", serveBaseRate))
	rep.set("sched.rejected", float64(ps.rejected), "ErrQueueFull at Submit")
	rep.set("sched.fairness_spread", telemetry.FairnessSpread(ps.waitSum, ps.count),
		"worst tenant's mean queue wait over the median tenant's, 1 ms floor")
	rep.set("trace.overhead", lat.P50/u.P50,
		fmt.Sprintf("traced request p50 %.4g us / untraced %.4g us", lat.P50, u.P50))

	// The parity check needs tasks of one shape (a mix of sizes moves a
	// few TLPs more or less from block to block); it uses 64 KiB, the
	// probe then times the mix.
	t0, dp := rig.mp.Tenants[0], dps[0]
	checkParity(rep, t0.RunTask, dp, rig.host, rig.mirrors[0], newTaskGen(cfg.seed^0x7e57, taskOutWindow).next)
	tgen := newServeGen(cfg.seed ^ 0x7e57)
	van, vanRec, err := vanillaTwin()
	if err != nil {
		return err
	}
	defer van.Close()
	pr := runProbe(dp, van, rig.mirrors[0], newDeviceMirror(), tgen.task, cfg.duration(0.2), 200, rig.host, nil, vanRec)
	pr.report(rep, "serve-mix task")
	reportRecoveries(rep, dps, auth0, reposts0)
	if err := secmemProbe(rep, t0.Adaptor.CryptoWorkers(), rand.New(rand.NewSource(int64(cfg.seed))), cfg.duration(0.1)); err != nil {
		return err
	}
	rep.notExercised("adaptor.stage_kv_us", "llm.default_ttft_p50_us", "llm.default_tpot_us", "llm.default_burst_share", "llm.steps_per_s", "llm.pending_mean", "llm.kv_reserved_bytes")
	return nil
}

// vanillaTwin builds a Vanilla A100 platform with a recorder on its
// host bus.
func vanillaTwin() (*ccai.Platform, *trace.Recorder, error) {
	van, err := ccai.New(ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Vanilla))
	if err != nil {
		return nil, nil, err
	}
	rec := trace.NewRecorder()
	van.Host.AddTap(rec)
	return van, rec, nil
}
