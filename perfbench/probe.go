package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"ccai"
	"ccai/internal/adaptor"
	"ccai/internal/core"
	"ccai/internal/secmem"
	"ccai/internal/trace"
	"ccai/internal/tvm"
	"ccai/internal/xpu"
)

// The traced run's instruments. Everything here times or counts calls
// into the layers' public functions from the outside; nothing is added
// inside the program.

// Device addresses the task datapath uses for a task's input and
// output (the same fixed layout RunTask uses).
const devIn, devOut = 0x0, 0x40000

// datapath is one protected pipeline: the TVM-side Adaptor and native
// driver, and the PCIe-SC unit they talk to.
type datapath struct {
	a  *adaptor.Adaptor
	d  *tvm.Driver
	sc *core.Controller
}

// layerTimes is one replica task's wall time per call, in ns.
type layerTimes struct {
	stage, prepare, submit, head, collect, release, total int64
}

// layerSeries accumulates layerTimes as per-call series in µs.
type layerSeries struct {
	stage, prepare, submit, head, collect, release, total []float64
}

func (s *layerSeries) add(t layerTimes) {
	s.stage = append(s.stage, us(t.stage))
	s.prepare = append(s.prepare, us(t.prepare))
	s.submit = append(s.submit, us(t.submit))
	s.head = append(s.head, us(t.head))
	s.collect = append(s.collect, us(t.collect))
	s.release = append(s.release, us(t.release))
	s.total = append(s.total, us(t.total))
}

// p50Sum is the sum of the per-call medians.
func (s *layerSeries) p50Sum() float64 {
	var sum float64
	for _, series := range [][]float64{s.stage, s.prepare, s.submit, s.head, s.collect, s.release} {
		sum += summarize(series).P50
	}
	return sum
}

// taskCmds is the command list of one task: copy in, kernel, copy out.
func taskCmds(in, out uint64, inLen, outLen int, k ccai.Kernel, param uint8) []xpu.Command {
	return []xpu.Command{
		{Op: xpu.OpCopyH2D, Src: in, Dst: devIn, Len: uint64(inLen)},
		{Op: xpu.OpKernel, Param: uint32(k)<<16 | uint32(param), Src: devIn, Dst: devOut, Len: uint64(outLen)},
		{Op: xpu.OpCopyD2H, Src: devOut, Dst: out, Len: uint64(outLen)},
	}
}

func outLen(in []byte, k ccai.Kernel) int {
	if k == ccai.KernelChecksum && len(in) < 8 {
		return 8
	}
	return len(in)
}

// replicaTask drives one protected task through the calls RunTask
// makes — StageH2D, PrepareD2H, Driver.Submit, Driver.Head,
// CollectD2H, ReleaseRegion twice — and times each. A submission the
// device did not fully consume goes through RunTask's recovery ladder
// (ResyncMMIO, RepostTags, Kick, up to 3 times), timed with Head; when
// that is exhausted the task fails without tearing the session down.
func replicaTask(dp datapath, in []byte, k ccai.Kernel, param uint8) ([]byte, layerTimes, error) {
	var lt layerTimes
	n := outLen(in, k)
	t0 := time.Now()
	inR, err := dp.a.StageH2D("task-input", in)
	t1 := time.Now()
	lt.stage = t1.Sub(t0).Nanoseconds()
	if err != nil {
		return nil, lt, err
	}
	outR, err := dp.a.PrepareD2H("task-output", int64(n))
	t2 := time.Now()
	lt.prepare = t2.Sub(t1).Nanoseconds()
	if err != nil {
		dp.a.ReleaseRegion(inR)
		return nil, lt, err
	}
	release := func() {
		dp.a.ReleaseRegion(outR)
		dp.a.ReleaseRegion(inR)
	}
	before := dp.d.Tail()
	err = dp.d.Submit(taskCmds(inR.Buf.Base(), outR.Buf.Base(), len(in), n, k, param)...)
	t3 := time.Now()
	lt.submit = t3.Sub(t2).Nanoseconds()
	if err != nil {
		release()
		return nil, lt, err
	}
	want := before + 3
	head, err := dp.d.Head()
	if err != nil || head != want {
		err = recoverSubmission(dp, inR, want)
	}
	t4 := time.Now()
	lt.head = t4.Sub(t3).Nanoseconds()
	if err != nil {
		release()
		return nil, lt, err
	}
	out, err := dp.a.CollectD2H(outR, int64(n))
	t5 := time.Now()
	lt.collect = t5.Sub(t4).Nanoseconds()
	release()
	t6 := time.Now()
	lt.release = t6.Sub(t5).Nanoseconds()
	lt.total = t6.Sub(t0).Nanoseconds()
	return out, lt, err
}

// recoverSubmission is RunTask's recovery ladder for a submission the
// device did not fully consume, without the final fail-closed teardown.
func recoverSubmission(dp datapath, in *adaptor.Region, want uint64) error {
	for attempt := 0; attempt < 3; attempt++ {
		if err := dp.a.ResyncMMIO(); err != nil {
			break
		}
		dp.a.RepostTags(in)
		if err := dp.d.Kick(); err != nil {
			continue
		}
		if head, err := dp.d.Head(); err == nil && head == want {
			return nil
		}
	}
	head, _ := dp.d.Head()
	return fmt.Errorf("submission stalled: device at %d, want %d", head, want)
}

// recoveries sums SC authentication failures and Adaptor tag reposts
// (one per recovery-ladder rung) over pipelines.
func recoveries(dps []datapath) (auth, reposts uint64) {
	for _, dp := range dps {
		auth += dp.sc.Stats().AuthFailures
		reposts += dp.a.Recovery().Reposts
	}
	return auth, reposts
}

// reportRecoveries sets core.auth_failures and adaptor.tag_reposts from
// counts taken before and after the traced phases. No fault is
// injected, so both should read 0; a recovered failure returns correct
// output, so it is reported, not counted as a failed operation.
func reportRecoveries(rep *report, dps []datapath, auth0, reposts0 uint64) {
	auth, reposts := recoveries(dps)
	auth, reposts = auth-auth0, reposts-reposts0
	rep.set("core.auth_failures", float64(auth), "SC.Stats delta over the traced phases, all pipelines; should be 0")
	rep.set("adaptor.tag_reposts", float64(reposts), "recovery-ladder tag reposts over the traced phases, all pipelines; should be 0")
	if auth > 0 || reposts > 0 {
		rep.info("finding: %d SC authentication failures and %d recovery-ladder tag reposts without any injected fault", auth, reposts)
	}
}

// stageProbe times Adaptor.StageH2D on each payload of payloads in
// turn, until d has passed and at least minOps were staged, releasing
// every region again without a submission: the sealing and staging a
// session's KV cache costs at prefill.
func stageProbe(a *adaptor.Adaptor, payloads [][]byte, d time.Duration, minOps int) (Summary, error) {
	var times []float64
	deadline := time.Now().Add(d)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		r, err := a.StageH2D("kv", payloads[i%len(payloads)])
		times = append(times, us(time.Since(t0).Nanoseconds()))
		if err != nil {
			return Summary{}, err
		}
		a.ReleaseRegion(r)
	}
	return summarize(times), nil
}

// vanillaTask runs one task on a Vanilla platform through the calls
// RunTask makes there, and times Driver.Submit alone.
func vanillaTask(p *ccai.Platform, in []byte, k ccai.Kernel, param uint8) ([]byte, int64, error) {
	n := outLen(in, k)
	space := p.Guest.Space
	inB, err := space.Alloc(tvm.SharedRegion, "task-input", int64(len(in)))
	if err != nil {
		return nil, 0, err
	}
	defer space.Free(inB)
	copy(inB.Bytes(), in)
	outB, err := space.Alloc(tvm.SharedRegion, "task-output", int64(n))
	if err != nil {
		return nil, 0, err
	}
	defer space.Free(outB)
	before := p.Driver.Tail()
	t0 := time.Now()
	err = p.Driver.Submit(taskCmds(inB.Base(), outB.Base(), len(in), n, k, param)...)
	submit := time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, submit, err
	}
	if head, err := p.Driver.Head(); err != nil || head != before+3 {
		return nil, submit, fmt.Errorf("vanilla device consumed %d of 3 commands (%v)", head-before, err)
	}
	return append([]byte(nil), outB.Bytes()...), submit, nil
}

// taskSpec is one task the replica probe issues.
type taskSpec struct {
	in     []byte
	kernel ccai.Kernel
	param  uint8
}

// probeResult is what the replica probe measured.
type probeResult struct {
	ops      int64
	failed   int64
	prot     layerSeries
	vanilla  []float64 // vanilla Driver.Submit, µs
	vanTotal []float64 // vanilla whole task, µs
	delta    counterDelta
	vanHost  counterDelta
}

// runProbe alternates replica tasks on dp with the same tasks on the
// vanilla twin until d has passed (at least minOps pairs), checking
// every output against mirror and vanMirror, the two devices' output
// windows. hostRec/intRec count dp's bus traffic and vanRec the twin's
// host bus.
func runProbe(dp datapath, van *ccai.Platform, mirror, vanMirror *deviceMirror, next func() taskSpec,
	d time.Duration, minOps int, hostRec, intRec, vanRec *trace.Recorder) probeResult {
	var pr probeResult
	before := snapshot(dp, hostRec, intRec)
	vanBefore := snapshot(datapath{}, vanRec, nil)
	deadline := time.Now().Add(d)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		ts := next()
		pr.ops += 2
		out, lt, err := replicaTask(dp, ts.in, ts.kernel, ts.param)
		if err != nil || !mirror.check(ts.kernel, ts.param, ts.in, out) {
			pr.failed++
		} else {
			pr.prot.add(lt)
		}
		t0 := time.Now()
		vout, submit, err := vanillaTask(van, ts.in, ts.kernel, ts.param)
		total := time.Since(t0)
		if err != nil || !vanMirror.check(ts.kernel, ts.param, ts.in, vout) {
			pr.failed++
		} else {
			pr.vanilla = append(pr.vanilla, us(submit))
			pr.vanTotal = append(pr.vanTotal, us(total.Nanoseconds()))
		}
	}
	pr.delta = snapshot(dp, hostRec, intRec).sub(before)
	pr.vanHost = snapshot(datapath{}, vanRec, nil).sub(vanBefore)
	return pr
}

// report sets the datapath layer timings from the probe, and the
// protected-to-vanilla ratios of its tasks. shape names the task the
// probe drove, for the metric lines.
func (pr probeResult) report(rep *report, shape string) {
	stage, prep, coll, rel := summarize(pr.prot.stage), summarize(pr.prot.prepare), summarize(pr.prot.collect), summarize(pr.prot.release)
	sub, head, van := summarize(pr.prot.submit), summarize(pr.prot.head), summarize(pr.vanilla)
	total, vanTotal := summarize(pr.prot.total), summarize(pr.vanTotal)
	on := "; " + shape + " replica"
	rep.set("adaptor.stage_h2d_us", stage.P50, stage.String()+on)
	rep.set("adaptor.prepare_d2h_us", prep.P50, prep.String()+on)
	rep.set("adaptor.collect_d2h_us", coll.P50, coll.String()+on)
	rep.set("adaptor.release_us", rel.P50, rel.String()+"; both ReleaseRegion calls"+on)
	rep.set("tvm.submit_us", sub.P50, sub.String()+"; host bus, SC, internal bus and device"+on)
	rep.set("tvm.head_us", head.P50, head.String()+on)
	rep.set("xpu.vanilla_submit_us", van.P50, van.String()+on)
	rep.set("core.sc_excess_us", sub.P50-van.P50, "tvm.submit_us - xpu.vanilla_submit_us"+on)
	rep.set("xpu.overhead_ratio", total.P50/vanTotal.P50,
		fmt.Sprintf("replica task p50 protected %.4g us / vanilla %.4g us%s", total.P50, vanTotal.P50, on))
	n := float64(len(pr.prot.total))
	vn := float64(len(pr.vanilla))
	if n > 0 && vn > 0 && pr.vanHost.hostBytes > 0 {
		rep.set("pcie.wire_expansion", (float64(pr.delta.hostBytes)/n)/(float64(pr.vanHost.hostBytes)/vn),
			fmt.Sprintf("host-bus payload per task, protected %.0f B / vanilla %.0f B%s (the cost model assumes 1.045)",
				float64(pr.delta.hostBytes)/n, float64(pr.vanHost.hostBytes)/vn, on))
	} else {
		rep.set("pcie.wire_expansion", 0, "no vanilla traffic recorded")
	}
	rep.ops(pr.ops, pr.failed)
	if pr.failed > 0 {
		rep.problem("replica probe: %d of %d tasks failed or returned wrong bytes", pr.failed, pr.ops)
	}
}

// reportCounts sets the per-op layer counts from counter deltas d over
// ops operations of the kind op names.
func reportCounts(rep *report, d counterDelta, ops int64, op string) {
	n := float64(max(ops, 1))
	per := fmt.Sprintf("per %s over %d", op, ops)
	rep.set("adaptor.mmio_writes_per_op", float64(d.io.MMIOWrites)/n, "Adaptor.IO delta "+per)
	rep.set("adaptor.mmio_reads_per_op", float64(d.io.MMIOReads)/n, "Adaptor.IO delta "+per)
	rep.set("core.decrypted_chunks_per_op", float64(d.sc.DecryptedChunks)/n, "SC.Stats delta "+per)
	rep.set("core.encrypted_chunks_per_op", float64(d.sc.EncryptedChunks)/n, "")
	rep.set("core.prefetched_chunks_per_op", float64(d.sc.PrefetchedChunks)/n, "")
	rep.set("core.prefetch_hits_per_op", float64(d.sc.PrefetchHits)/n, "")
	rep.set("pcie.host_tlps_per_op", float64(d.hostTLPs)/n, "steady state, after warm-up; "+per)
	rep.set("pcie.host_payload_bytes_per_op", float64(d.hostBytes)/n, "")
	if d.hasInternal {
		rep.set("pcie.internal_tlps_per_op", float64(d.intTLPs)/n, "")
	} else {
		rep.set("pcie.internal_tlps_per_op", 0, "not measured: a tenant's internal bus is not reachable from outside the chassis")
	}
}

// parityTasks is the number of tasks in each block of the parity
// check. Each task takes 3 of the submission ring's 64 slots, so after
// 256 tasks the ring is back where it started.
const parityTasks = 256

// checkParity checks the traced replica against the public RunTask on
// a warmed-up platform whose host bus host taps: one block of tasks
// through RunTask, then the same tasks through the replica on dp. The
// tasks must all have one shape: then every block moves the same
// traffic, and the replica must put exactly as many TLPs and payload
// bytes on the host bus as RunTask and return the same outputs, each
// also checked against the device mirror. It also reports the layer
// sum against RunTask's median time (trace.remainder_us) and returns
// RunTask's per-task host-bus TLP counts.
func checkParity(rep *report, runTask func(ccai.Task) ([]byte, error), dp datapath, host *trace.Recorder,
	mirror *deviceMirror, next func() taskSpec) []uint64 {
	tasks := make([]taskSpec, parityTasks)
	outs := make([][]byte, parityTasks)
	var counts []uint64
	var runTimes []float64
	var layers layerSeries
	var failed, differ int64
	p0, b0 := host.Packets(), host.PayloadBytes()
	for i := range tasks {
		tasks[i] = next()
		ts := tasks[i]
		before := host.Packets()
		t0 := time.Now()
		out, err := runTask(ccai.Task{Input: ts.in, Kernel: ts.kernel, Param: ts.param})
		runTimes = append(runTimes, us(time.Since(t0).Nanoseconds()))
		counts = append(counts, host.Packets()-before)
		if err != nil || !mirror.check(ts.kernel, ts.param, ts.in, out) {
			failed++
		}
		outs[i] = out
	}
	p1, b1 := host.Packets(), host.PayloadBytes()
	for i, ts := range tasks {
		out, lt, err := replicaTask(dp, ts.in, ts.kernel, ts.param)
		if err != nil || !mirror.check(ts.kernel, ts.param, ts.in, out) {
			failed++
		} else {
			layers.add(lt)
		}
		if !bytes.Equal(out, outs[i]) {
			differ++
		}
	}
	p2, b2 := host.Packets(), host.PayloadBytes()
	rep.ops(2*parityTasks, failed)
	per := func(n uint64) float64 { return float64(n) / parityTasks }
	rep.set("trace.parity_tlp_diff", per(p2-p1)-per(p1-p0),
		fmt.Sprintf("host-bus TLPs per task, traced replica %.3f - RunTask %.3f", per(p2-p1), per(p1-p0)))
	rep.set("trace.parity_byte_diff", per(b2-b1)-per(b1-b0),
		fmt.Sprintf("host-bus payload bytes per task, traced replica %.1f - RunTask %.1f", per(b2-b1), per(b1-b0)))
	if p2-p1 != p1-p0 || b2-b1 != b1-b0 {
		rep.problem("traced replica moves %d TLPs and %d payload bytes over %d tasks, RunTask %d and %d",
			p2-p1, b2-b1, parityTasks, p1-p0, b1-b0)
	}
	if failed > 0 || differ > 0 {
		rep.problem("parity check: %d of %d tasks failed or returned wrong bytes, %d outputs differ between RunTask and the replica",
			failed, 2*parityTasks, differ)
	}
	run, sum := summarize(runTimes), layers.p50Sum()
	rep.set("trace.remainder_us", run.P50-sum,
		fmt.Sprintf("traced RunTask p50 %.4g us minus the sum of the replica's per-call p50s %.4g us", run.P50, sum))
	return counts
}

// counterDelta is a difference of layer counters over a phase.
type counterDelta struct {
	io                  adaptor.IOStats
	sc                  core.Stats
	hostTLPs, hostBytes uint64
	intTLPs             uint64
	hasInternal         bool
}

func snapshot(dp datapath, host, internal *trace.Recorder) counterDelta {
	var c counterDelta
	if dp.a != nil {
		c.io = dp.a.IO()
	}
	if dp.sc != nil {
		c.sc = dp.sc.Stats()
	}
	if host != nil {
		c.hostTLPs, c.hostBytes = host.Packets(), host.PayloadBytes()
	}
	if internal != nil {
		c.intTLPs, c.hasInternal = internal.Packets(), true
	}
	return c
}

// snapshotAll sums the counters of every pipeline in dps, with the
// host-bus traffic they share.
func snapshotAll(dps []datapath, host *trace.Recorder) counterDelta {
	c := snapshot(datapath{}, host, nil)
	for _, dp := range dps {
		d := snapshot(dp, nil, nil)
		c.io.MMIOWrites += d.io.MMIOWrites
		c.io.MMIOReads += d.io.MMIOReads
		c.sc.DecryptedChunks += d.sc.DecryptedChunks
		c.sc.EncryptedChunks += d.sc.EncryptedChunks
		c.sc.PrefetchedChunks += d.sc.PrefetchedChunks
		c.sc.PrefetchHits += d.sc.PrefetchHits
	}
	return c
}

func (c counterDelta) sub(b counterDelta) counterDelta {
	return counterDelta{
		io: adaptor.IOStats{MMIOWrites: c.io.MMIOWrites - b.io.MMIOWrites, MMIOReads: c.io.MMIOReads - b.io.MMIOReads},
		sc: core.Stats{
			DecryptedChunks:  c.sc.DecryptedChunks - b.sc.DecryptedChunks,
			EncryptedChunks:  c.sc.EncryptedChunks - b.sc.EncryptedChunks,
			PrefetchedChunks: c.sc.PrefetchedChunks - b.sc.PrefetchedChunks,
			PrefetchHits:     c.sc.PrefetchHits - b.sc.PrefetchHits,
		},
		hostTLPs:    c.hostTLPs - b.hostTLPs,
		hostBytes:   c.hostBytes - b.hostBytes,
		intTLPs:     c.intTLPs - b.intTLPs,
		hasInternal: c.hasInternal,
	}
}

// secmemProbe times Stream.SealBatch and Stream.OpenBatch on 64 KiB as
// 256 chunks of 256 B, on a crypto pool as wide as the Adaptor's, and
// checks that every opened chunk equals its plaintext.
func secmemProbe(rep *report, workers int, rng *rand.Rand, d time.Duration) error {
	const chunks, chunkSize = 256, 256
	key, nonce := secmem.FreshKey(), secmem.FreshNonce()
	tx, err := secmem.NewStream(key, nonce)
	if err != nil {
		return err
	}
	rx, err := secmem.NewStream(key, nonce)
	if err != nil {
		return err
	}
	pool := secmem.NewPool(workers)
	pts := make([][]byte, chunks)
	aads := make([][]byte, chunks)
	for i := range pts {
		pts[i] = make([]byte, chunkSize)
		rng.Read(pts[i])
		aads[i] = make([]byte, 16)
		rng.Read(aads[i])
	}
	var seal, open []float64
	var attempted, failed int64
	deadline := time.Now().Add(d)
	for i := 0; i < 64 || time.Now().Before(deadline); i++ {
		attempted++
		t0 := time.Now()
		sealed, err := tx.SealBatch(pts, aads, pool)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("secmem seal: %w", err)
		}
		opened, err := rx.OpenBatch(sealed, aads, pool)
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("secmem open: %w", err)
		}
		seal = append(seal, us(t1.Sub(t0).Nanoseconds()))
		open = append(open, us(t2.Sub(t1).Nanoseconds()))
		for j := range pts {
			if !bytes.Equal(opened[j], pts[j]) {
				failed++
				break
			}
		}
	}
	s, o := summarize(seal), summarize(open)
	detail := fmt.Sprintf("256 x 256 B on a pool of %d; ", workers)
	rep.set("secmem.seal_64k_us", s.P50, detail+s.String())
	rep.set("secmem.open_64k_us", o.P50, detail+o.String())
	rep.ops(attempted, failed)
	if failed > 0 {
		rep.problem("secmem probe: %d of %d batches opened to wrong bytes", failed, attempted)
	}
	return nil
}

// steadyWindow is the window steadyAfter uses for task counts: the
// period, in tasks, of the traffic that recurs as the submission ring
// wraps.
const steadyWindow = 64

// steadyAfter returns the op index from which the per-op counts no
// longer change: the first i such that the total of every run of w
// consecutive ops from i on is within tol (a share) of the last run's.
// The window absorbs traffic that recurs every w ops; tol absorbs the
// jitter of ops that are not all alike (sessions wrap the ring at
// different points), so only a lasting change counts.
func steadyAfter(counts []uint64, w int, tol float64) int {
	if len(counts) < w || w < 1 {
		return len(counts)
	}
	sums := make([]uint64, len(counts)-w+1)
	for i := range counts[:w] {
		sums[0] += counts[i]
	}
	for i := 1; i < len(sums); i++ {
		sums[i] = sums[i-1] - counts[i-1] + counts[i+w-1]
	}
	last := float64(sums[len(sums)-1])
	i := len(sums)
	for i > 0 && math.Abs(float64(sums[i-1])-last) <= tol*last {
		i--
	}
	return i
}

// memPhase brackets a timed phase with runtime.MemStats.
type memPhase struct {
	before runtime.MemStats
	start  time.Time
}

func startMem() *memPhase {
	m := &memPhase{}
	runtime.ReadMemStats(&m.before)
	m.start = time.Now()
	return m
}

// report sets the runtime metrics for ops operations of the phase.
func (m *memPhase) report(rep *report, ops int64, op string) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	secs := time.Since(m.start).Seconds()
	if ops < 1 {
		ops = 1
	}
	rep.set("runtime.allocs_per_op", float64(after.Mallocs-m.before.Mallocs)/float64(ops),
		fmt.Sprintf("untraced phase, per %s", op))
	rep.set("runtime.alloc_bytes_per_op", float64(after.TotalAlloc-m.before.TotalAlloc)/float64(ops), "")
	rep.set("runtime.gc_cycles_per_s", float64(after.NumGC-m.before.NumGC)/secs, "")
}

// heapLiveMiB returns the live heap in MiB after two collections: the
// second also empties the sync.Pool caches the first only moves aside,
// so what remains is what the program retains.
func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
