// Command perfbench is the repository's wall-clock benchmark. It runs
// one seeded workload against the public ccai API on the functional Go
// datapath (real AES-GCM, serialized TLPs, simulated PCIe-SC and xPU),
// checks every output byte on the host, and prints its metrics: the
// end-to-end set with -trace 0, the per-layer set with -trace 1. The
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload serve-mix --seed 7 --seconds 10 --trace 0
//
// Exit status: 0 when every output was correct, 1 when the run finished
// but an operation failed or returned wrong bytes (the result line is
// still printed), 2 for bad arguments or a platform that could not be
// built (no result line).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is the gated metric set, printed with -trace 0. Every
// workload reports every one of them; what each means on a workload is
// in README.md. The gated tail is the p90: on a shared 2-vCPU host the
// p99 of an open loop moved by 17-70% from run to run with the host's
// own speed; every timing's p99 and highest supported percentile are
// printed beside it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"rate_per_s", "1/s"},
	{"aux_p50_us", "us"},
	{"heap_live_mb", "MiB"},
}

// perLayer is the traced metric set, printed with -trace 1. A layer a
// workload does not exercise reports 0 and is listed as such.
var perLayer = []metricDef{
	{"adaptor.stage_h2d_us", "us"},
	{"adaptor.stage_kv_us", "us"},
	{"adaptor.prepare_d2h_us", "us"},
	{"adaptor.collect_d2h_us", "us"},
	{"adaptor.release_us", "us"},
	{"adaptor.mmio_writes_per_op", "count"},
	{"adaptor.mmio_reads_per_op", "count"},
	{"secmem.seal_64k_us", "us"},
	{"secmem.open_64k_us", "us"},
	{"tvm.submit_us", "us"},
	{"tvm.head_us", "us"},
	{"core.sc_excess_us", "us"},
	{"core.decrypted_chunks_per_op", "count"},
	{"core.encrypted_chunks_per_op", "count"},
	{"core.prefetched_chunks_per_op", "count"},
	{"core.prefetch_hits_per_op", "count"},
	{"core.auth_failures", "count"},
	{"adaptor.tag_reposts", "count"},
	{"pcie.host_tlps_per_op", "count"},
	{"pcie.host_payload_bytes_per_op", "B"},
	{"pcie.internal_tlps_per_op", "count"},
	{"pcie.wire_expansion", "ratio"},
	{"xpu.vanilla_submit_us", "us"},
	{"xpu.overhead_ratio", "ratio"},
	{"sched.backlog_max", "count"},
	{"sched.rejected", "count"},
	{"sched.fairness_spread", "ratio"},
	{"llm.steps_per_s", "1/s"},
	{"llm.pending_mean", "count"},
	{"llm.kv_reserved_bytes", "B"},
	{"llm.default_ttft_p50_us", "us"},
	{"llm.default_tpot_us", "us"},
	{"llm.default_burst_share", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"warmup.steady_after_ops", "count"},
	{"trace.parity_tlp_diff", "count"},
	{"trace.parity_byte_diff", "B"},
	{"trace.overhead", "ratio"},
	{"trace.remainder_us", "us"},
}

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// duration returns frac of the run's measuring time.
func (c runConfig) duration(frac float64) time.Duration {
	return time.Duration(frac * c.seconds * float64(time.Second))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig, *report) error{
	"offload-64k": runOffload,
	"serve-mix":   runServe,
	"llm-stream":  runLLM,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: offload-64k, serve-mix or llm-stream")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measuring time of the run in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep := newReport(stdout)
	rep.host(cfg)
	steal0, total0, stealOK := cpuTimes()
	if err := runner(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	if share, ok := stealShare(steal0, total0); ok && stealOK {
		rep.info("host steal = %.4g%% of CPU time during the run (/proc/stat)", 100*share)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, err := rep.result(defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	fmt.Fprintln(stdout, line)
	if rep.failed > 0 || len(rep.problems) > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// report collects one run's metric values and prints a human-readable
// line for each as it is set.
type report struct {
	out       io.Writer
	vals      map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newReport(out io.Writer) *report {
	return &report{out: out, vals: make(map[string]float64)}
}

// set records metric name and prints it with its unit and detail.
func (r *report) set(name string, v float64, detail string) {
	r.vals[name] = v
	unit := unitOf(name)
	if detail != "" {
		detail = "  # " + detail
	}
	fmt.Fprintf(r.out, "metric %-32s %14.6g %s%s\n", name, v, unit, detail)
}

// info prints one human-readable line that is not a reported metric.
func (r *report) info(format string, args ...any) {
	fmt.Fprintf(r.out, "info   "+format+"\n", args...)
}

// ops adds attempted and failed operations to the run's totals.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// problem records a correctness problem that is not a failed operation
// (for example a parity check that did not hold); it fails the run.
func (r *report) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintf(r.out, "FAIL   %s\n", msg)
}

// notExercised reports 0 for metrics of a layer the workload does not
// run through.
func (r *report) notExercised(names ...string) {
	for _, n := range names {
		r.set(n, 0, "not exercised on this workload")
	}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the final JSON line over defs. Every metric of defs
// must have been set with a finite value.
func (r *report) result(defs []metricDef) (string, error) {
	if r.attempted < 1 {
		return "", fmt.Errorf("no operation was attempted")
	}
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.Name, v)
		}
		m[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	fmt.Fprintf(r.out, "info   fail_ratio = %.6g (failed %d of %d operations attempted)\n",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	b, err := json.Marshal(resultLine{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   m,
	})
	return string(b), err
}
