package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ccai"
	"ccai/internal/llm"
	"ccai/internal/trace"
	"ccai/internal/xpu"
)

// llm-stream: a closed loop with 2 clients, each running streaming
// sessions back to back on its own tenant of a 2-tenant (A100, T4)
// chassis: OpenSession, Decode, Prefill, drain the chunks, Close. Each
// decode step is a 32-byte sealed submission, so the submission ring,
// MMIO, descriptors and tags dominate rather than crypto bytes; TTFT
// still includes sealing the session's 17-80 KiB KV cache, and the LLM
// engine and its DRR interleave run only here.
//
// The prompt mix (70% short prompts of 12-20 tokens, 30% long ones of
// 960-1024 tokens) is a synthetic choice made to exercise both a small
// and a near-maximal KV seal at prefill; it is not taken from observed
// traffic.

const (
	llmClients      = 2
	llmNewTokens    = 256
	llmChunkTokens  = 8
	llmTokenBytes   = 4
	llmLongShare    = 0.3
	llmShortTokens  = 16
	llmLongTokensLo = 960
	llmLongTokensHi = 1024
	// llmWarmupSessions is the number of short-prompt sessions each
	// tenant runs during set-up: enough decode steps to pass the point
	// where per-step host-bus traffic stops changing.
	llmWarmupSessions = 12
	// llmSetupRepeats is how many times a gated run sets its chassis
	// up: a set-up takes tens of milliseconds, so the median needs more
	// of them than offload-64k's.
	llmSetupRepeats = 11
	// llmHeapSessions is the number of sessions each client runs in the
	// fixed-work phase that heap_live_mb is measured after. The engine
	// retains a record of every step, so a phase of fixed length would
	// retain as much as the host's speed let it do.
	llmHeapSessions = 1000
	// llmDecodeSpan is one decode chunk's wire size.
	llmDecodeSpan = llmChunkTokens * llmTokenBytes
	// llmBurstTPOT is the TPOT, in µs, under which a session's chunks
	// count as having reached the client in one burst.
	llmBurstTPOT = 0.1
)

// gatedEngine is the engine configuration of the gated run: one
// dispatcher worker. With the default two workers, the two dispatchers
// and two clients share the host's two cores, and the tail of TTFT
// moved with the host's load far more (README.md gives the spreads).
// The traced run measures the default configuration too.
var gatedEngine = llm.EngineConfig{Workers: 1}

// promptGen draws one client's seeded prompts.
type promptGen struct {
	rng  *rand.Rand
	pool []byte
}

func newPromptGen(seed uint64) *promptGen {
	rng := rand.New(rand.NewSource(int64(seed)))
	pool := make([]byte, 64<<10)
	rng.Read(pool)
	return &promptGen{rng: rng, pool: pool}
}

// next returns a prompt and a session seed: 12-20 tokens, or 960-1024
// tokens with probability llmLongShare. A warm-up prompt is exactly
// llmShortTokens long, so warm-up sessions move equal traffic.
func (g *promptGen) next(warmup bool) ([]byte, uint64) {
	tokens := llmShortTokens - 4 + g.rng.Intn(9)
	switch {
	case warmup:
		tokens = llmShortTokens
	case g.rng.Float64() < llmLongShare:
		tokens = llmLongTokensLo + g.rng.Intn(llmLongTokensHi-llmLongTokensLo+1)
	}
	n := tokens * llmTokenBytes
	off := g.rng.Intn(len(g.pool) - n + 1)
	return g.pool[off : off+n], g.rng.Uint64()
}

// sessionStats is what one client measured. ttft and tpot are by
// session start, tokens (verified tokens per session) by session end.
type sessionStats struct {
	sessions, failed int64
	chunks           int64
	ttft, tpot       *series
	tokens           *series
	open             []float64
}

func newSessionStats(start time.Time, d time.Duration) *sessionStats {
	return &sessionStats{ttft: newSeries(start, d), tpot: newSeries(start, d), tokens: newSeries(start, d)}
}

func (s *sessionStats) merge(o *sessionStats) {
	s.sessions += o.sessions
	s.failed += o.failed
	s.chunks += o.chunks
	s.ttft.merge(o.ttft)
	s.tpot.merge(o.tpot)
	s.tokens.merge(o.tokens)
	s.open = append(s.open, o.open...)
}

// totalTokens is the number of verified tokens streamed.
func (s *sessionStats) totalTokens() float64 {
	var n float64
	for _, v := range s.tokens.all() {
		n += v
	}
	return n
}

// sessionConfig is the streaming configuration of a session on prompt:
// its KV reservation is sized by the prompt's own length.
func sessionConfig(prompt []byte, seed uint64) (llm.Config, error) {
	cfg := llm.Config{
		MaxNewTokens:    llmNewTokens,
		ChunkTokens:     llmChunkTokens,
		TokenBytes:      llmTokenBytes,
		MaxPromptTokens: len(prompt) / llmTokenBytes,
		Seed:            seed,
	}
	return cfg, cfg.Normalize()
}

// runSession runs one streaming session on t and checks every chunk
// against the host oracle. TTFT runs from the Prefill call to the
// arrival of chunk 0; TPOT is (last chunk - first chunk) / tokens after
// chunk 0. Chunks can reach the client in bursts, so a gap between two
// chunks says little; the span over the whole stream does. Prefill
// blocks until the stream ends, so it runs on its own goroutine while
// the client drains the chunks as they arrive.
func runSession(ctx context.Context, t *ccai.Tenant, prompt []byte, seed uint64, st *sessionStats) {
	st.sessions++
	cfg, err := sessionConfig(prompt, seed)
	if err != nil {
		st.failed++
		return
	}
	digest := llm.Digest(seed, prompt)
	kv := llm.KVInit(digest, cfg.KVBytes(cfg.MaxPromptTokens))

	t0 := time.Now()
	sess, err := t.OpenSession(ctx, cfg)
	st.open = append(st.open, us(time.Since(t0).Nanoseconds()))
	if err != nil {
		st.failed++
		return
	}
	defer sess.Close()
	ch, err := sess.Decode(ctx)
	if err != nil {
		st.failed++
		return
	}
	prefilled := make(chan error, 1)
	start := time.Now()
	go func() { prefilled <- sess.Prefill(ctx, prompt) }()

	ok := true
	next := 0
	var first, last time.Time
	var tokens int64
	for c := range ch {
		at := time.Now()
		span := int64(cfg.ChunkSpan(next) * cfg.TokenBytes)
		if c.Err != nil || c.Index != next || !chunkOK(kv, digest, c.Index, span, c.Tokens) {
			ok = false
			continue
		}
		if next == 0 {
			first = at
		}
		last = at
		next++
		tokens += int64(len(c.Tokens) / cfg.TokenBytes)
	}
	if err := <-prefilled; err != nil || next != cfg.Chunks() || !ok {
		st.failed++
		return
	}
	st.chunks += int64(next)
	st.tokens.add(time.Now(), float64(tokens))
	st.ttft.add(t0, us(first.Sub(start).Nanoseconds()))
	after := tokens - int64(cfg.ChunkSpan(0))
	st.tpot.add(t0, us(last.Sub(first).Nanoseconds())/float64(after))
}

// kvPayloads returns the initial KV caches of n sessions from the
// workload's prompt mix, as Prefill seals and stages them.
func kvPayloads(seed uint64, n int) ([][]byte, error) {
	gen := newPromptGen(seed)
	var kvs [][]byte
	for i := 0; i < n; i++ {
		prompt, s := gen.next(false)
		cfg, err := sessionConfig(prompt, s)
		if err != nil {
			return nil, err
		}
		kvs = append(kvs, llm.KVInit(llm.Digest(s, prompt), cfg.KVBytes(cfg.MaxPromptTokens)))
	}
	return kvs, nil
}

// llmRig is one 2-tenant inference chassis.
type llmRig struct {
	mp   *ccai.MultiPlatform
	host *trace.Recorder // traced rigs only
}

// buildLLM assembles the chassis with engine configuration ecfg,
// establishes trust and warms each tenant up with llmWarmupSessions
// short-prompt sessions, one tenant after the other. A traced rig taps the host bus from the start, runs
// extra more sessions on tenant 0 and returns tenant 0's per-session
// host-bus TLP counts.
func buildLLM(seed uint64, ecfg llm.EngineConfig, traced bool, extra int) (*llmRig, time.Duration, []uint64, *sessionStats, error) {
	start := time.Now()
	mp, err := ccai.NewMultiPlatform([]xpu.Profile{xpu.A100, xpu.T4}, ccai.WithLLMEngine(ecfg))
	if err != nil {
		return nil, 0, nil, nil, err
	}
	rig := &llmRig{mp: mp}
	if traced {
		rig.host = trace.NewRecorder()
		mp.Host.AddTap(rig.host)
	}
	if err := mp.EstablishTrustAll(); err != nil {
		mp.Close()
		return nil, 0, nil, nil, err
	}
	var counts []uint64
	st := newSessionStats(start, 0)
	gen := newPromptGen(seed ^ 0x5eed)
	for i, t := range mp.Tenants {
		n := llmWarmupSessions
		if i == 0 {
			n += extra
		}
		for j := 0; j < n; j++ {
			var before uint64
			if traced {
				before = rig.host.Packets()
			}
			prompt, s := gen.next(true)
			runSession(context.Background(), t, prompt, s, st)
			if traced && i == 0 {
				counts = append(counts, rig.host.Packets()-before)
			}
		}
	}
	return rig, time.Since(start), counts, st, nil
}

func setupLLM(cfg runConfig, rep *report, ecfg llm.EngineConfig, repeats int) (*llmRig, float64, error) {
	var times []float64
	var rig *llmRig
	for i := 0; i < repeats; i++ {
		if rig != nil {
			rig.mp.Close()
		}
		var d time.Duration
		var st *sessionStats
		var err error
		rig, d, _, st, err = buildLLM(cfg.seed, ecfg, false, 0)
		if err != nil {
			return nil, 0, err
		}
		rep.ops(st.sessions, st.failed)
		times = append(times, d.Seconds())
	}
	return rig, median(times), nil
}

// closedLoop runs llmClients clients, client i on tenant i, for d, or
// until each has run sessions sessions when sessions > 0, and returns
// their merged stats and the elapsed time. The sample hook, if set,
// runs every millisecond while the clients run.
func (r *llmRig) closedLoop(seed uint64, d time.Duration, sessions int, sample func()) (*sessionStats, time.Duration) {
	per := make([]*sessionStats, llmClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range per {
		per[i] = newSessionStats(start, d)
	}
	for i := 0; i < llmClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen := newPromptGen(seed + uint64(i))
			for n := 0; time.Now().Before(deadline) && (sessions == 0 || n < sessions); n++ {
				prompt, s := gen.next(false)
				runSession(context.Background(), r.mp.Tenants[i], prompt, s, per[i])
			}
		}(i)
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	if sample != nil {
		go func() {
			defer close(sampled)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					sample()
				case <-stop:
					return
				}
			}
		}()
	} else {
		close(sampled)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	<-sampled
	all := newSessionStats(start, d)
	for _, p := range per {
		all.merge(p)
	}
	return all, elapsed
}

func (s *sessionStats) account(rep *report) {
	rep.ops(s.sessions, s.failed)
	if s.failed > 0 {
		rep.problem("llm-stream: %d of %d sessions failed or streamed wrong bytes", s.failed, s.sessions)
	}
}

func runLLM(cfg runConfig, rep *report) error {
	if cfg.trace {
		return traceLLM(cfg, rep)
	}
	rig, setup, err := setupLLM(cfg, rep, gatedEngine, llmSetupRepeats)
	if err != nil {
		return err
	}
	st, elapsed := rig.closedLoop(cfg.seed, cfg.duration(0.85), 0, nil)
	rig.mp.Close()
	st.account(rep)
	heap, err := llmHeap(cfg, rep)
	if err != nil {
		return err
	}
	ttft, tpot := st.ttft.summary(), st.tpot.summary()
	if !ttft.p99Supported() {
		rep.info("warning: %d sessions per window are too few for a p99", ttft.minN)
	}
	rep.set("setup_s", setup, fmt.Sprintf("median of %d set-ups: 2-tenant chassis (engine workers: 1), EstablishTrustAll, %d warm-up sessions per tenant", llmSetupRepeats, llmWarmupSessions))
	rep.set("p50_us", ttft.P50, "ttft_p50_ms x 1000, Prefill call to chunk 0; "+ttft.String())
	rep.set("p90_us", ttft.P90, fmt.Sprintf("ttft_p90_ms x 1000; ttft_p99_ms = %.6g ms", ttft.P99/1e3))
	rep.set("rate_per_s", st.tokens.rate(), fmt.Sprintf("tokens_per_s: verified output tokens per second, median over %d windows; whole phase %.6g over %d sessions",
		phaseWindows, st.totalTokens()/elapsed.Seconds(), st.sessions))
	rep.set("aux_p50_us", tpot.Mean, fmt.Sprintf("tpot_p50_us: median over %d windows of each window's mean TPOT, per session (last chunk - first chunk) / tokens after chunk 0; "+
		"window medians %.4g; ", phaseWindows, tpot.P50)+tpot.String())
	rep.set("heap_live_mb", heap, fmt.Sprintf("live heap after a GC at the end of a fixed-work phase: %d sessions per client on a fresh chassis", llmHeapSessions))
	return nil
}

// llmHeap runs llmHeapSessions sessions per client on a freshly built
// chassis and returns the live heap after them in MiB, the chassis
// still open.
func llmHeap(cfg runConfig, rep *report) (float64, error) {
	rig, _, _, warm, err := buildLLM(cfg.seed, gatedEngine, false, 0)
	if err != nil {
		return 0, err
	}
	defer rig.mp.Close()
	warm.account(rep)
	st, _ := rig.closedLoop(cfg.seed, cfg.duration(0.5), llmHeapSessions, nil)
	st.account(rep)
	if n := st.sessions; n < llmClients*llmHeapSessions {
		rep.info("warning: the fixed-work phase ran %d of %d sessions before its time limit", n, llmClients*llmHeapSessions)
	}
	return heapLiveMiB(), nil
}

// traceLLM is the traced run: an untraced phase for the runtime
// metrics, an untraced phase with the default engine configuration,
// then a freshly built chassis with a tapped host bus that runs the
// same closed loop while the engine is sampled, then the parity check
// and the replica probe on tenant 0 with tasks of a decode step's shape
// (32 B up, 32 B down, KernelXOR), and the KV staging probe.
func traceLLM(cfg runConfig, rep *report) error {
	rig, _, err := setupLLM(cfg, rep, gatedEngine, 1)
	if err != nil {
		return err
	}
	mem := startMem()
	untraced, uElapsed := rig.closedLoop(cfg.seed, cfg.duration(0.25), 0, nil)
	mem.report(rep, untraced.chunks, "decode chunk")
	untraced.account(rep)
	rig.mp.Close()
	if err := defaultEngine(cfg, rep); err != nil {
		return err
	}

	const extra = 8
	rig, _, warm, wst, err := buildLLM(cfg.seed, gatedEngine, true, extra)
	if err != nil {
		return err
	}
	defer rig.mp.Close()
	wst.account(rep)
	steady := steadyAfter(warm, 4, 0.005)
	rep.set("warmup.steady_after_ops", float64(steady),
		fmt.Sprintf("tenant 0 host-bus TLPs per short-prompt session over %d sessions (window 4, tolerance 0.5%%): first %d, last %d; the set-up warms up %d",
			len(warm), warm[0], warm[len(warm)-1], llmWarmupSessions))
	if steady > llmWarmupSessions {
		rep.problem("llm-stream: per-session host-bus traffic still changed at session %d, after the %d-session warm-up", steady, llmWarmupSessions)
	}

	var dps []datapath
	for _, t := range rig.mp.Tenants {
		dps = append(dps, datapath{a: t.Adaptor, d: t.Driver, sc: t.SC})
	}
	auth0, reposts0 := recoveries(dps)
	eng := rig.mp.Engine()
	var pending, kv []float64
	before := snapshotAll(dps, rig.host)
	st, elapsed := rig.closedLoop(cfg.seed, cfg.duration(0.25), 0, func() {
		pending = append(pending, float64(eng.Pending()))
		kv = append(kv, float64(eng.KVInUse()))
	})
	reportCounts(rep, snapshotAll(dps, rig.host).sub(before), st.chunks, "decode chunk, both tenants, prefill staging included,")
	st.account(rep)
	open, ttft := summarize(st.open), summarize(st.ttft.all())
	rep.info("llm.open_us = %.4g us (OpenSession; %s)", open.P50, open.String())
	rep.info("llm.prefill_us = %.4g us (Prefill call to chunk 0, traced; %s)", ttft.P50, ttft.String())
	rep.set("llm.steps_per_s", float64(st.chunks)/elapsed.Seconds(), "engine steps (one chunk each) per second, traced")
	rep.set("llm.pending_mean", mean(pending), fmt.Sprintf("Engine.Pending sampled every 1 ms, %d samples", len(pending)))
	rep.set("llm.kv_reserved_bytes", mean(kv), "Engine.KVInUse sampled every 1 ms")
	utps := untraced.totalTokens() / uElapsed.Seconds()
	ttps := st.totalTokens() / elapsed.Seconds()
	rep.set("trace.overhead", utps/ttps, fmt.Sprintf("untraced %.4g tok/s / traced %.4g tok/s", utps, ttps))

	t0, dp := rig.mp.Tenants[0], dps[0]
	step := newTaskGen(cfg.seed^0x7e57, llmDecodeSpan)
	mirror := newDeviceMirror()
	checkParity(rep, t0.RunTask, dp, rig.host, mirror, step.next)
	van, vanRec, err := vanillaTwin()
	if err != nil {
		return err
	}
	defer van.Close()
	pr := runProbe(dp, van, mirror, newDeviceMirror(), step.next, cfg.duration(0.1), 200, rig.host, nil, vanRec)
	pr.report(rep, "decode-shaped (32 B XOR) RunTask")
	kvs, err := kvPayloads(cfg.seed^0x4b56, 64)
	if err != nil {
		return err
	}
	kvStage, err := stageProbe(t0.Adaptor, kvs, cfg.duration(0.05), 200)
	if err != nil {
		return err
	}
	rep.set("adaptor.stage_kv_us", kvStage.P50, "StageH2D of a KV cache from the prompt mix, released unsubmitted; "+kvStage.String())
	reportRecoveries(rep, dps, auth0, reposts0)
	if err := secmemProbe(rep, t0.Adaptor.CryptoWorkers(), rand.New(rand.NewSource(int64(cfg.seed))), cfg.duration(0.1)); err != nil {
		return err
	}
	rep.notExercised("sched.backlog_max", "sched.rejected", "sched.fairness_spread")
	return nil
}

// defaultEngine runs the closed loop untraced on a chassis with the
// program's default engine configuration (two dispatcher workers) and
// reports its TTFT, TPOT and the share of sessions whose whole stream
// reached the client in one burst.
func defaultEngine(cfg runConfig, rep *report) error {
	rig, _, err := setupLLM(cfg, rep, llm.EngineConfig{}, 1)
	if err != nil {
		return err
	}
	defer rig.mp.Close()
	st, elapsed := rig.closedLoop(cfg.seed, cfg.duration(0.2), 0, nil)
	st.account(rep)
	ttft, tpot := st.ttft.summary(), st.tpot.summary()
	bursts := 0
	all := st.tpot.all()
	for _, v := range all {
		if v < llmBurstTPOT {
			bursts++
		}
	}
	rep.set("llm.default_ttft_p50_us", ttft.P50, "default engine (2 workers), untraced; "+ttft.String())
	rep.set("llm.default_tpot_us", tpot.Mean, "default engine, median over windows of each window's mean TPOT; "+tpot.String())
	rep.set("llm.default_burst_share", float64(bursts)/float64(max(len(all), 1)),
		fmt.Sprintf("default engine, share of %d sessions with TPOT under %.2g us (the stream reached the client in one burst); %.4g tok/s",
			len(all), llmBurstTPOT, st.totalTokens()/elapsed.Seconds()))
	return nil
}
