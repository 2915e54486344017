// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four workloads for a fixed number of seconds, checks every operation
// against the planted-bug ground truth, and prints the metrics as one JSON
// line at the end of its standard output:
//
//	go run . --workload paper-bugs --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it first
// runs an untraced reference, then a traced run that records a span around
// every call into a layer, and reports the per-layer metrics. See
// README.md for the metrics and the workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	ops      int    // when > 0, stop each segment after this many operations (self-test)
	out      string // directory for traces and result files
}

// instance is a set-up workload, ready to run measured segments.
type instance interface {
	// run executes operations within lim and reports them; tr is nil for
	// an untraced run. Only the first digestOps operations enter the
	// output digest.
	run(lim limit, tr *tracer, digestOps int) *segment
	close()
}

// workloadDef describes one workload.
type workloadDef struct {
	// digestOps is how many leading operations the output digest covers;
	// it is also the length of the untraced reference in a traced run.
	// Zero for live-service, whose outputs follow the wall clock.
	digestOps int
	// wallClock marks the workload whose operations are timed by the wall
	// clock (live-service: requests mostly wait). The simulated workloads
	// are pure computation and are timed by the process's CPU time, which
	// is what they cost the host and which time stolen from a shared
	// virtual machine does not inflate.
	wallClock bool
	setup     func(cfg config, traced bool) (instance, error)
}

var workloads = map[string]workloadDef{
	"paper-bugs":   {digestOps: 360, setup: func(c config, _ bool) (instance, error) { return newPaperBugs(c) }},
	"suite-scan":   {digestOps: 935, setup: func(c config, _ bool) (instance, error) { return newSuiteScan(c) }},
	"campaign":     {digestOps: roundSC + roundTSO, setup: newCampaign},
	"live-service": {wallClock: true, setup: func(c config, _ bool) (instance, error) { return newLive(c) }},
}

// setupReps is how many times an untraced run sets its workload up; setup_s
// is the median.
const setupReps = 9

// endToEnd lists the metrics of an untraced run, in order.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p99", "ms"},
	{"runs_per_exposure", "runs"},
	{"max_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run. A workload that does not
// exercise a layer reports 0 for that layer's metrics.
var perLayer = []metricName{
	{"sim.plain_run_us", "us"},
	{"sim.plain_ns_per_access", "ns"},
	{"trace.new_recorder_us", "us"},
	{"trace.prep_run_us", "us"},
	{"trace.events_per_run", "count"},
	{"trace.ns_per_event", "ns"},
	{"analyze.prepare_us", "us"},
	{"analyze.events_per_s", "1/s"},
	{"analyze.pairs", "count"},
	{"analyze.interference_pairs", "count"},
	{"inject.new_injector_us", "us"},
	{"inject.detect_run_us", "us"},
	{"inject.hook_calls_per_run", "count"},
	{"inject.hook_ns_per_call", "ns"},
	{"inject.delays_per_run", "count"},
	{"inject.skipped_per_run", "count"},
	{"inject.exposures_per_delay", "ratio"},
	{"session.runs_per_session", "count"},
	{"session.missed_pct", "%"},
	{"server.submit_us", "us"},
	{"server.job_s.sc", "s"},
	{"server.job_s.tso", "s"},
	{"server.journal_bytes_per_program", "B"},
	{"server.runs_per_program", "count"},
	{"server.obs.session_runs_per_program", "count"},
	{"server.obs.prepare_ms_per_program", "ms"},
	{"server.obs.detect_ms_per_program", "ms"},
	{"server.obs.delays_per_program", "count"},
	{"server.obs.waves_per_program", "count"},
	{"live.do_us.plain.p50", "us"},
	{"live.do_us.plain.p99", "us"},
	{"live.do_us.sampled_out.p50", "us"},
	{"live.do_us.sampled_out.p99", "us"},
	{"live.do_us.record.p50", "us"},
	{"live.do_us.record.p99", "us"},
	{"live.do_us.detect.p50", "us"},
	{"live.do_us.detect.p99", "us"},
	{"live.added_us.p50", "us"},
	{"live.added_us.p99", "us"},
	{"live.admitted_pct", "%"},
	{"live.delays_per_admitted", "count"},
	{"live.truncated_delays", "count"},
	{"live.budget_ns", "ns"},
	{"live.bugs_per_admitted", "count"},
	{"gen.lag_ms_max", "ms"},
	{"gen.late_pct", "%"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.num_gc", "count"},
	{"layer.session.self_ms_per_op", "ms"},
	{"layer.sim.self_ms_per_op", "ms"},
	{"layer.trace.self_ms_per_op", "ms"},
	{"layer.analyze.self_ms_per_op", "ms"},
	{"layer.inject.self_ms_per_op", "ms"},
	{"layer.server.self_ms_per_op", "ms"},
	{"layer.live.self_ms_per_op", "ms"},
	{"layer.gen.self_ms_per_op", "ms"},
	{"tracing.overhead_pct", "%"},
	{"tracing.spans_per_op", "count"},
}

type metricName struct{ name, unit string }

// result is everything one invocation measured.
type result struct {
	Env       envStamp          `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra"`
	Digest    string            `json:"digest"`
	Breaches  []string          `json:"breaches,omitempty"`
	Failures  []string          `json:"failures,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := runBench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := writeResult(cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result file:", err)
	}
	report(os.Stdout, res)
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	cfg := config{out: filepath.Join(".bench_build", "perfbench", "out")}
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "paper-bugs | suite-scan | campaign | live-service")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 15, "how long the measured run lasts")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return cfg, errors.New("--trace must be 0 or 1")
	}
	if cfg.seconds < 1 {
		return cfg, errors.New("--seconds must be at least 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func runBench(cfg config) (*result, error) {
	res := &result{Env: stampEnv(cfg), Metrics: map[string]metric{}}
	def := workloads[cfg.workload]
	if cfg.trace {
		return res, runTraced(cfg, def, res)
	}

	var setups []float64
	var inst instance
	var cal calibrator
	cal.run() // allocates the kernel's map outside the samples
	for k := 0; k < setupReps; k++ {
		if inst != nil {
			inst.close()
		}
		// Collect the previous set-up's garbage outside the timing.
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		var err error
		if inst, err = def.setup(cfg, false); err != nil {
			return nil, fmt.Errorf("setting up %s: %w", cfg.workload, err)
		}
		took := cpuTime() - c0
		if def.wallClock {
			setups = append(setups, time.Since(t0).Seconds())
			continue
		}
		// A set-up lasts tens of milliseconds, and the host's speed moves
		// within a run, so each set-up is scaled by kernels run right
		// after it rather than by the measured run's.
		cal.ns = cal.ns[:0]
		for j := 0; j < 3; j++ {
			cal.run()
		}
		setups = append(setups, took.Seconds()*cal.scale())
	}
	defer inst.close()
	lim := limit{deadline: time.Now().Add(time.Duration(cfg.seconds) * time.Second), maxOps: cfg.ops}
	steal0, total0 := stealTicks()
	seg := inst.run(lim, nil, def.digestOps)
	steal1, total1 := stealTicks()

	res.finish(seg)
	m := res.Metrics
	// CPU times are scaled to the reference host speed; wall times are not.
	scale, busy := seg.cal.scale(), seg.cpu-seg.cal.spent
	if def.wallClock {
		scale, busy = 1, seg.elapsed
	}
	m["setup_s"] = metric{median(setups), "s"}
	m["throughput_ops_s"] = metric{float64(seg.ops) / (busy.Seconds() * scale), "ops/s"}
	m["op_ms_p50"] = metric{percentileNS(seg.lat, 50) * scale / 1e6, "ms"}
	m["op_ms_p99"] = metric{windowP99(seg.lat, seg.p99Window) * scale / 1e6, "ms"}
	rpe := 0.0
	if seg.exposures > 0 {
		rpe = float64(seg.exposureRuns) / float64(seg.exposures)
	}
	m["runs_per_exposure"] = metric{rpe, "runs"}
	m["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	if total1 > total0 {
		// How noisy the machine was: the share of all CPU time the
		// hypervisor gave to other guests during the measured run.
		res.Extra["host_steal_pct"] = metric{100 * float64(steal1-steal0) / float64(total1-total0), "%"}
	}
	if !def.wallClock {
		res.Extra["host_speed"] = metric{scale, "ratio"}
		res.Extra["raw_op_ms_p50"] = metric{percentileNS(seg.lat, 50) / 1e6, "ms"}
	}
	res.Extra["wall_throughput_ops_s"] = metric{float64(seg.ops) / seg.elapsed.Seconds(), "ops/s"}
	res.Extra["samples"] = metric{float64(len(seg.lat)), "count"}
	perP99 := len(seg.lat)
	if seg.p99Window > 0 && len(seg.lat) >= 2*seg.p99Window {
		perP99 = seg.p99Window
		res.Extra["p99_windows"] = metric{float64(len(seg.lat) / seg.p99Window), "count"}
		res.Extra["run_op_ms_p99"] = metric{percentileNS(seg.lat, 99) / 1e6, "ms"}
	}
	res.Extra["beyond_p99"] = metric{float64(perP99 - int(0.99*float64(perP99))), "count"}
	addRuntime(res.Extra, seg)
	return res, nil
}

// runTraced runs the untraced reference, then the traced run on a fresh
// set-up, and reports the per-layer metrics. The two runs must produce the
// same output digest.
func runTraced(cfg config, def workloadDef, res *result) error {
	start := time.Now()
	refOps := def.digestOps
	if refOps == 0 {
		// live-service: the reference is the first half of the run.
		refOps = int(liveRate * float64(cfg.seconds) / 2)
	}
	if cfg.ops > 0 && cfg.ops < refOps {
		refOps = cfg.ops
	}
	ref, err := def.setup(cfg, false)
	if err != nil {
		return fmt.Errorf("setting up %s: %w", cfg.workload, err)
	}
	refSeg := ref.run(limit{minOps: refOps, maxOps: refOps}, nil, def.digestOps)
	ref.close()

	inst, err := def.setup(cfg, true)
	if err != nil {
		return fmt.Errorf("setting up %s: %w", cfg.workload, err)
	}
	defer inst.close()
	tr := newTracer()
	lim := limit{deadline: start.Add(time.Duration(cfg.seconds) * time.Second), minOps: refOps, maxOps: cfg.ops}
	if def.digestOps == 0 {
		lim.maxOps = refOps
	}
	seg := inst.run(lim, tr, def.digestOps)

	res.finish(seg)
	res.Attempted += refSeg.ops
	res.Failed += refSeg.failed
	res.Breaches = append(res.Breaches, refSeg.broken...)
	if got, want := seg.digest.sum(), refSeg.digest.sum(); got != want {
		res.Breaches = append(res.Breaches, fmt.Sprintf("traced digest %s differs from untraced %s", got, want))
	}

	st := analyzeSpans(seg.spans)
	if st.badNest > 0 {
		res.Breaches = append(res.Breaches, fmt.Sprintf("%d spans do not fit inside their parent", st.badNest))
	}
	for k, v := range seg.perLayer {
		res.Metrics[k] = v
	}
	ops := float64(seg.ops)
	for _, l := range []string{"session", "sim", "trace", "analyze", "inject", "server", "live", "gen"} {
		res.Metrics["layer."+l+".self_ms_per_op"] = metric{float64(st.selfNS[l]) / 1e6 / ops, "ms"}
	}
	res.Metrics["tracing.spans_per_op"] = metric{float64(st.spansAll) / ops, "count"}
	n := len(refSeg.lat)
	if n > len(seg.lat) {
		n = len(seg.lat)
	}
	if base := sum(refSeg.lat[:n]); base > 0 {
		res.Metrics["tracing.overhead_pct"] = metric{100 * float64(sum(seg.lat[:n])-base) / float64(base), "%"}
	}
	// Runtime figures come from the untraced reference: the tracer's own
	// allocations would otherwise count against the program.
	addRuntime(res.Metrics, refSeg)
	for _, mn := range perLayer {
		if _, ok := res.Metrics[mn.name]; !ok {
			res.Metrics[mn.name] = metric{0, mn.unit}
		}
	}

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	res.TraceFile = filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := writeChrome(res.TraceFile, seg.spans); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	res.Correct = len(res.Breaches) == 0
	return nil
}

// finish copies a segment's oracle outcome into the result.
func (res *result) finish(seg *segment) {
	res.Attempted = seg.ops
	res.Failed = seg.failed
	res.Breaches = append(res.Breaches, seg.broken...)
	res.Failures = seg.failures
	res.Digest = seg.digest.sum()
	res.Extra = seg.extra
	res.Extra["failed_pct"] = metric{100 * float64(seg.failed) / float64(max(seg.ops, 1)), "%"}
	res.Correct = len(res.Breaches) == 0
}

// addRuntime adds the Go runtime's allocation and GC figures of a segment.
func addRuntime(m map[string]metric, seg *segment) {
	ops := float64(max(seg.ops, 1))
	m["runtime.allocs_per_op"] = metric{float64(seg.mem.mallocs) / ops, "count"}
	m["runtime.alloc_bytes_per_op"] = metric{float64(seg.mem.allocBytes) / ops, "B"}
	m["runtime.gc_pause_ms"] = metric{float64(seg.mem.pauseNS) / 1e6, "ms"}
	m["runtime.num_gc"] = metric{float64(seg.mem.numGC), "count"}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// writeResult saves the full result, environment stamp included, as JSON.
func writeResult(cfg config, res *result) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-trace%d-seed%d.json", cfg.workload, res.Env.Trace, cfg.seed)
	return os.WriteFile(filepath.Join(cfg.out, name), append(b, '\n'), 0o644)
}

// report prints the human-readable lines, then the one-line JSON result.
func report(w io.Writer, res *result) {
	env, _ := json.Marshal(res.Env)
	fmt.Fprintf(w, "env %s\n", env)
	fmt.Fprintf(w, "digest %s\n", res.Digest)
	names := endToEnd
	if res.Env.Trace == 1 {
		names = perLayer
	}
	for _, mn := range names {
		fmt.Fprintf(w, "metric %-36s %14.4f %s\n", mn.name, res.Metrics[mn.name].Value, mn.unit)
	}
	for _, k := range sortedKeys(res.Extra) {
		fmt.Fprintf(w, "extra  %-36s %14.4f %s\n", k, res.Extra[k].Value, res.Extra[k].Unit)
	}
	fmt.Fprintf(w, "oracle %d of %d operations failed\n", res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  failed: %s\n", f)
	}
	for _, b := range res.Breaches {
		fmt.Fprintf(w, "  BREACH: %s\n", b)
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "trace %s\n", res.TraceFile)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}
