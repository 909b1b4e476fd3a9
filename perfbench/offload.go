package main

import (
	"fmt"
	"math/rand"
	"time"

	"ccai"
	"ccai/internal/trace"
	"ccai/internal/xpu"
)

// offload-64k: a closed loop with one client on a single-tenant A100
// Protected platform and a Vanilla twin built in the same process.
// Protected and vanilla 64 KiB KernelXOR tasks alternate, so both sides
// see the same host state. Bound by bytes and crypto: Adaptor sealing,
// secmem, the SC decrypt/prefetch and D2H seal paths and arena
// recycling do the work; the scheduler and the LLM engine do none.

const (
	offloadTaskBytes = 64 << 10
	// offloadWarmup is the number of tasks each platform runs before
	// timing starts. The traced run checks that per-task host-bus
	// traffic has stopped changing by then (warmup.steady_after_ops).
	offloadWarmup = 320
	// setupRepeats is how many times a run sets its platforms up; the
	// median is setup_s and the last set-up is measured.
	setupRepeats = 5
)

// taskGen draws seeded KernelXOR tasks over windows of one random pool.
type taskGen struct {
	rng  *rand.Rand
	pool []byte
	size int
}

func newTaskGen(seed uint64, size int) *taskGen {
	rng := rand.New(rand.NewSource(int64(seed)))
	pool := make([]byte, 1<<20+size)
	rng.Read(pool)
	return &taskGen{rng: rng, pool: pool, size: size}
}

func (g *taskGen) next() taskSpec {
	off := g.rng.Intn(len(g.pool) - g.size + 1)
	return taskSpec{in: g.pool[off : off+g.size], kernel: ccai.KernelXOR, param: uint8(1 + g.rng.Intn(255))}
}

// offloadRig is one protected platform and its vanilla twin.
type offloadRig struct {
	prot, van *ccai.Platform
	// bus recorders, set on a traced rig only
	host, internal, vanHost *trace.Recorder
}

func (r *offloadRig) close() {
	r.prot.Close()
	r.van.Close()
}

// buildOffload assembles both platforms, establishes trust and runs
// the warm-up. With traced set, recorders tap the buses from the start
// and onWarm sees each warm-up task's host-bus TLP count.
func buildOffload(seed uint64, traced bool, onWarm func(tlps uint64)) (*offloadRig, time.Duration, int64, error) {
	start := time.Now()
	prot, err := ccai.New(ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Protected))
	if err != nil {
		return nil, 0, 0, err
	}
	van, err := ccai.New(ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Vanilla))
	if err != nil {
		prot.Close()
		return nil, 0, 0, err
	}
	rig := &offloadRig{prot: prot, van: van}
	if traced {
		rig.host, rig.internal, rig.vanHost = trace.NewRecorder(), trace.NewRecorder(), trace.NewRecorder()
		prot.Host.AddTap(rig.host)
		prot.Internal.AddTap(rig.internal)
		van.Host.AddTap(rig.vanHost)
	}
	if err := prot.EstablishTrust(); err != nil {
		rig.close()
		return nil, 0, 0, err
	}
	var failed int64
	gen := newTaskGen(seed^0x5eed, offloadTaskBytes)
	for i := 0; i < offloadWarmup; i++ {
		ts := gen.next()
		var before uint64
		if traced {
			before = rig.host.Packets()
		}
		if out, err := prot.RunTask(ccai.Task{Input: ts.in, Kernel: ts.kernel, Param: ts.param}); err != nil || !xorOK(ts.in, out, ts.param) {
			failed++
		}
		if onWarm != nil {
			onWarm(rig.host.Packets() - before)
		}
		if out, err := van.RunTask(ccai.Task{Input: ts.in, Kernel: ts.kernel, Param: ts.param}); err != nil || !xorOK(ts.in, out, ts.param) {
			failed++
		}
	}
	return rig, time.Since(start), failed, nil
}

// setupOffload builds an untraced rig repeats times and returns the
// last one with the median set-up time.
func setupOffload(cfg runConfig, rep *report, repeats int) (*offloadRig, float64, error) {
	var times []float64
	var rig *offloadRig
	for i := 0; i < repeats; i++ {
		if rig != nil {
			rig.close()
		}
		var d time.Duration
		var failed int64
		var err error
		rig, d, failed, err = buildOffload(cfg.seed, false, nil)
		if err != nil {
			return nil, 0, err
		}
		rep.ops(2*offloadWarmup, failed)
		times = append(times, d.Seconds())
	}
	return rig, median(times), nil
}

// offloadLoop alternates protected and vanilla RunTask calls until d has
// passed, timing each and checking every output.
func offloadLoop(rig *offloadRig, gen *taskGen, d time.Duration, vanilla bool, rep *report) (prot, van *series) {
	var attempted, failed int64
	start := time.Now()
	prot, van = newSeries(start, d), newSeries(start, d)
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		ts := gen.next()
		task := ccai.Task{Input: ts.in, Kernel: ts.kernel, Param: ts.param}
		attempted++
		t0 := time.Now()
		out, err := rig.prot.RunTask(task)
		dt := time.Since(t0)
		if err != nil || !xorOK(ts.in, out, ts.param) {
			failed++
		} else {
			prot.add(t0, us(dt.Nanoseconds()))
		}
		if !vanilla {
			continue
		}
		attempted++
		t0 = time.Now()
		out, err = rig.van.RunTask(task)
		dt = time.Since(t0)
		if err != nil || !xorOK(ts.in, out, ts.param) {
			failed++
		} else {
			van.add(t0, us(dt.Nanoseconds()))
		}
	}
	rep.ops(attempted, failed)
	if failed > 0 {
		rep.problem("offload-64k: %d of %d tasks failed or returned wrong bytes", failed, attempted)
	}
	return prot, van
}

func runOffload(cfg runConfig, rep *report) error {
	if cfg.trace {
		return traceOffload(cfg, rep)
	}
	rig, setup, err := setupOffload(cfg, rep, setupRepeats)
	if err != nil {
		return err
	}
	defer rig.close()
	prot, van := offloadLoop(rig, newTaskGen(cfg.seed, offloadTaskBytes), cfg.duration(1), true, rep)
	p, v := prot.summary(), van.summary()
	if !p.p99Supported() {
		rep.info("warning: %d protected tasks per window are too few for a p99", p.minN)
	}
	rate := 1e6 / p.Mean
	rep.set("setup_s", setup, fmt.Sprintf("median of %d set-ups: both platforms, EstablishTrust, %d warm-up task pairs", setupRepeats, offloadWarmup))
	rep.set("p50_us", p.P50, "task_p50_us, protected RunTask; "+p.String())
	rep.set("p90_us", p.P90, fmt.Sprintf("task_p90_us, protected RunTask; task_p99_us = %.6g us", p.P99))
	rep.set("rate_per_s", rate, fmt.Sprintf("protected 64 KiB tasks per second of RunTask time (1 / mean latency); task_mbps = %.4g MB/s", rate*offloadTaskBytes/1e6))
	rep.set("aux_p50_us", v.P50, "vanilla_task_p50_us, vanilla twin RunTask; "+v.String())
	rep.set("heap_live_mb", heapLiveMiB(), "live heap after a GC at the end of the timed phase")
	return nil
}

// traceOffload is the traced run: an untraced protected-only phase for
// the runtime metrics, then a freshly built, bus-tapped rig that checks
// the warm-up, checks the traced replica against RunTask, and times the
// replica's calls.
func traceOffload(cfg runConfig, rep *report) error {
	rig, _, err := setupOffload(cfg, rep, 1)
	if err != nil {
		return err
	}
	gen := newTaskGen(cfg.seed, offloadTaskBytes)
	mem := startMem()
	untraced, _ := offloadLoop(rig, gen, cfg.duration(0.4), false, rep)
	u := summarize(untraced.all())
	mem.report(rep, int64(u.N), "protected 64 KiB task")
	rig.close()

	var warm []uint64
	rig, _, failed, err := buildOffload(cfg.seed, true, func(n uint64) { warm = append(warm, n) })
	if err != nil {
		return err
	}
	defer rig.close()
	rep.ops(2*offloadWarmup, failed)
	// The parity check's RunTask tasks extend the warm-up series: the
	// per-task count must already be steady when timing would start.
	dp := datapath{a: rig.prot.Adaptor, d: rig.prot.Driver, sc: rig.prot.SC}
	auth0, reposts0 := recoveries([]datapath{dp})
	mirror := newDeviceMirror()
	warm = append(warm, checkParity(rep, rig.prot.RunTask, dp, rig.host, mirror, gen.next)...)
	steady := steadyAfter(warm, steadyWindow, 0)
	rep.set("warmup.steady_after_ops", float64(steady),
		fmt.Sprintf("host-bus TLPs per task over %d tasks: first %d, last %d; the set-up warms up %d",
			len(warm), warm[0], warm[len(warm)-1], offloadWarmup))
	if steady > offloadWarmup {
		rep.problem("offload-64k: per-task host-bus traffic still changed at task %d, after the %d-task warm-up", steady, offloadWarmup)
	}

	pr := runProbe(dp, rig.van, mirror, newDeviceMirror(), gen.next, cfg.duration(0.4), 200,
		rig.host, rig.internal, rig.vanHost)
	pr.report(rep, "64 KiB task")
	reportCounts(rep, pr.delta, int64(len(pr.prot.total)), "protected 64 KiB task")
	reportRecoveries(rep, []datapath{dp}, auth0, reposts0)
	traced := summarize(pr.prot.total)
	rep.set("trace.overhead", traced.P50/u.P50,
		fmt.Sprintf("traced replica task p50 %.4g us / untraced RunTask p50 %.4g us", traced.P50, u.P50))
	if err := secmemProbe(rep, rig.prot.Adaptor.CryptoWorkers(), rand.New(rand.NewSource(int64(cfg.seed))), cfg.duration(0.1)); err != nil {
		return err
	}
	rep.notExercised("adaptor.stage_kv_us", "llm.default_ttft_p50_us", "llm.default_tpot_us", "llm.default_burst_share", "sched.backlog_max", "sched.rejected", "sched.fairness_spread",
		"llm.steps_per_s", "llm.pending_mean", "llm.kv_reserved_bytes")
	return nil
}
