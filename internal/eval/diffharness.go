package eval

import (
	"bytes"
	"context"
	"fmt"
	"runtime"

	"waffle/internal/control"
	"waffle/internal/core"
	"waffle/internal/engine"
	"waffle/internal/genprog"
	"waffle/internal/obs"
	"waffle/internal/sched"
	"waffle/internal/stats"
	"waffle/internal/trace"
	"waffle/internal/tsvd"
	"waffle/internal/wafflebasic"
)

// DiffOptions configures a differential-oracle sweep over a generated
// corpus. The zero value (plus a seed) is a usable smoke configuration.
type DiffOptions struct {
	// Seed is the corpus base seed; program i is generated from Seed+i.
	Seed int64
	// Programs is the corpus size. <= 0 means 25.
	Programs int
	// Size selects the per-program scale. Mixed overrides it.
	Size genprog.Size
	// Mixed cycles small/medium/large across the corpus.
	Mixed bool
	// TSO generates store-buffer corpora: programs run under TSO semantics
	// with planted stale-read bugs (genprog.TSOSizeConfig), and the waffle
	// tool's analysis admits fork-ordered write→read pairs as StaleRead
	// candidates. The oracle additionally checks each exposure's fence
	// proposal against the manifest and verifies the repair — replaying
	// the exposing schedule on a fenced variant must run clean. The
	// baselines run unchanged (SC analysis, thread delays), quantifying
	// that visibility-delay injection is what exposes this class.
	TSO bool
	// MaxRuns bounds each armed Waffle/WaffleBasic session (preparation
	// included). <= 0 means 25.
	MaxRuns int
	// TSVDRuns bounds each armed TSVD session. TSVD instruments only
	// thread-unsafe API calls, so it can never expose a planted MemOrder
	// bug; a short budget demonstrates that without burning runs.
	// <= 0 means 6.
	TSVDRuns int
	// DisarmRuns bounds the disarmed zero-FP control sessions. <= 0 means
	// 12 — enough runs for every per-site probability to decay to zero,
	// so the schedule space the tools can reach has been exhausted.
	DisarmRuns int
	// Workers bounds corpus-level parallelism. <= 0 means GOMAXPROCS.
	Workers int
	// Metrics receives engine, session, and pool counters from every
	// session the sweep drives; the final snapshot lands in
	// DiffReport.Metrics. Nil disables instrumentation (and omits the
	// report section).
	Metrics *obs.Registry
	// Controller, when non-nil and enabled, attaches the adaptive campaign
	// controller: each session gets a per-target core.Tuner, its engine's
	// Options.Metrics is diverted to the controller's per-target registry
	// (so the controller can read inject.decay_floor_hits per session),
	// and outcomes feed back for campaign-wide budget reallocation.
	// Session-level Metrics stay on the global registry — the two layers
	// are independent by design. Nil (or a Disabled controller) leaves
	// Session.Tuner unset: the sweep is byte-identical to the fixed
	// harness.
	Controller *control.Controller
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.Programs <= 0 {
		o.Programs = 25
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = 25
	}
	if o.TSVDRuns <= 0 {
		o.TSVDRuns = 6
	}
	if o.DisarmRuns <= 0 {
		o.DisarmRuns = 12
	}
	return o
}

// DiffTools names the compared detectors in report order.
var DiffTools = []string{"waffle", "wafflebasic", "tsvd"}

// newDiffTool builds one comparison detector. The TSVD adapter is the
// shared one in internal/engine, so the harness and the campaign server
// drive byte-identical code.
func newDiffTool(name string, metrics *obs.Registry, tso bool) core.Tool {
	switch name {
	case "waffle":
		return core.NewWaffle(core.Options{Metrics: metrics, TSO: tso})
	case "wafflebasic":
		return wafflebasic.New(core.Options{Metrics: metrics})
	case "tsvd":
		return engine.NewTSVDTool(tsvd.New(tsvd.Options{}))
	}
	panic("eval: unknown diff tool " + name)
}

// BugOutcome is one (bug, tool) cell of the differential table.
type BugOutcome struct {
	Bug  int    `json:"bug"`
	Kind string `json:"kind"`
	Tool string `json:"tool"`
	// Runs is the 1-based run that exposed the bug, 0 when the tool
	// missed it within its budget.
	Runs int `json:"runs"`
	// Delays counts the delays injected in the exposing run.
	Delays int `json:"delays,omitempty"`
}

// ProgramDiff is one generated program's differential result.
type ProgramDiff struct {
	Program  string       `json:"program"`
	Seed     int64        `json:"seed"`
	Size     string       `json:"size"`
	Bugs     int          `json:"bugs"`
	Threads  int          `json:"threads"`
	Objects  int          `json:"objects"`
	Outcomes []BugOutcome `json:"outcomes"`
	// RunsUsed totals the runs each tool consumed on this program, armed
	// and disarmed sessions included.
	RunsUsed   map[string]int `json:"runs_used"`
	Violations []string       `json:"violations,omitempty"`
}

// ToolDiffSummary aggregates one tool over the corpus. MeanRuns (and its
// CI) counts a missed bug as MaxRuns+1 — the whole budget spent plus the
// run that would still be needed — so means remain comparable across
// tools with different hit rates. The P50/P90/P99 order statistics are
// computed over exposing sessions ONLY (0 when nothing exposed): folding
// a sentinel into a percentile would report a "runs-to-exposure" no
// session ever achieved and make the tail track the miss rate rather
// than the exposure latency. Misses are reported explicitly in Missed.
type ToolDiffSummary struct {
	Tool         string  `json:"tool"`
	Sessions     int     `json:"sessions"` // armed sessions = planted bugs
	Exposed      int     `json:"exposed"`
	Missed       int     `json:"missed"`
	ExposureRate float64 `json:"exposure_rate"`
	MeanRuns     float64 `json:"mean_runs"`
	CI95Runs     float64 `json:"ci95_runs"` // 95% CI half-width of MeanRuns
	P50Runs      float64 `json:"p50_runs"`  // over exposing sessions only
	P90Runs      float64 `json:"p90_runs"`  // over exposing sessions only
	P99Runs      float64 `json:"p99_runs"`  // over exposing sessions only
	Delays       int     `json:"delays"`    // delays injected across exposing runs
	// TotalRuns counts every run the tool consumed across the corpus —
	// armed and disarmed sessions alike. This is the quantity the
	// adaptive controller competes on.
	TotalRuns int `json:"total_runs"`
}

// DiffReport is the full differential-oracle result: the payload of
// BENCH_gen.json and the object the acceptance tests assert on.
type DiffReport struct {
	Seed       int64 `json:"seed"`
	Programs   int   `json:"programs"`
	MaxRuns    int   `json:"max_runs"`
	PlantedUBI int   `json:"planted_ubi"`
	PlantedUAF int   `json:"planted_uaf"`
	// PlantedStale counts planted stale-read bugs (TSO corpora only).
	PlantedStale int               `json:"planted_stale,omitempty"`
	Tools        []ToolDiffSummary `json:"tools"`
	Results      []ProgramDiff     `json:"results"`
	// Violations aggregates every oracle breach across the corpus: a
	// report outside a manifest, a fault in a disarmed program, an
	// abnormal run, or a reproducibility divergence. Empty on a healthy
	// pipeline.
	Violations []string `json:"violations,omitempty"`
	// ReproOK reports that every program regenerated byte-identically and
	// its preparation trace and plans were bit-reproducible across
	// Analyze and AnalyzeStream.
	ReproOK bool `json:"repro_ok"`
	// Metrics is the campaign observability snapshot taken at the end of
	// the sweep, present when DiffOptions.Metrics was set. Its delay and
	// run counters cover every session the sweep drove.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Cancelled reports that the sweep's context died before the corpus
	// finished: Results covers the committed prefix only, and the
	// summaries describe that prefix, not the full corpus.
	Cancelled bool `json:"cancelled,omitempty"`
}

// Summary returns the named tool's corpus summary.
func (r *DiffReport) Summary(tool string) (ToolDiffSummary, bool) {
	for _, s := range r.Tools {
		if s.Tool == tool {
			return s, true
		}
	}
	return ToolDiffSummary{}, false
}

// RunDifferential generates a corpus and runs the differential oracle:
// every planted bug armed in isolation under every tool, plus a disarmed
// zero-FP control per tool, plus per-program reproducibility checks. The
// corpus fans out over a sched pool; per-program results are committed in
// index order, so the report is deterministic for a fixed seed.
func RunDifferential(o DiffOptions) *DiffReport {
	return RunDifferentialCtx(context.Background(), o)
}

// RunDifferentialCtx is RunDifferential under a caller context: once ctx
// is done no further program is scheduled, sessions in flight abort at
// their next run boundary (the simulator cancels mid-run), and the wave
// being executed when the context died is discarded — the report covers
// exactly the committed prefix and is flagged Cancelled. With a
// Background context the sweep is byte-identical to RunDifferential.
func RunDifferentialCtx(ctx context.Context, o DiffOptions) *DiffReport {
	o = o.withDefaults()
	rep := &DiffReport{Seed: o.Seed, Programs: o.Programs, MaxRuns: o.MaxRuns, ReproOK: true}

	poolWorkers := o.Workers
	if poolWorkers <= 0 {
		poolWorkers = runtime.GOMAXPROCS(0)
	}
	pool := sched.Pool{Workers: poolWorkers, Wave: poolWorkers, Metrics: o.Metrics,
		Tune: o.Controller.PoolTune(poolWorkers)}
	runs := make(map[string][]float64)        // all armed sessions; miss = budget+1 sentinel (means)
	exposedRuns := make(map[string][]float64) // exposing sessions only (percentiles)
	totalRuns := make(map[string]int)
	delays := make(map[string]int)
	exposed := make(map[string]int)
	sessions := make(map[string]int)

	_, runErr := sched.RunCtx(ctx, pool, 0, o.Programs-1, func(jctx context.Context, i int) (*ProgramDiff, error) {
		return o.diffProgram(jctx, i), nil
	}, func(res sched.Result[*ProgramDiff]) bool {
		if res.Err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("program %d: %v", res.Index, res.Err))
			return true
		}
		pd := res.Value
		rep.Results = append(rep.Results, *pd)
		rep.Violations = append(rep.Violations, pd.Violations...)
		for tool, n := range pd.RunsUsed {
			totalRuns[tool] += n
		}
		for _, out := range pd.Outcomes {
			sessions[out.Tool]++
			if out.Tool == DiffTools[0] {
				switch out.Kind {
				case core.UseBeforeInit.String():
					rep.PlantedUBI++
				case core.StaleRead.String():
					rep.PlantedStale++
				default:
					rep.PlantedUAF++
				}
			}
			budget := o.MaxRuns
			if out.Tool == "tsvd" {
				budget = o.TSVDRuns
			}
			if out.Runs > 0 {
				exposed[out.Tool]++
				delays[out.Tool] += out.Delays
				runs[out.Tool] = append(runs[out.Tool], float64(out.Runs))
				exposedRuns[out.Tool] = append(exposedRuns[out.Tool], float64(out.Runs))
			} else {
				// The budget+1 sentinel feeds the mean only; percentiles
				// must describe observed exposure latencies, never a value
				// synthesized for a miss.
				runs[out.Tool] = append(runs[out.Tool], float64(budget+1))
			}
		}
		return true
	})

	for _, name := range DiffTools {
		mean, ci := stats.MeanCI95(runs[name])
		es := exposedRuns[name]
		s := ToolDiffSummary{
			Tool:      name,
			Sessions:  sessions[name],
			Exposed:   exposed[name],
			Missed:    sessions[name] - exposed[name],
			MeanRuns:  mean,
			CI95Runs:  ci,
			P50Runs:   stats.Percentile(es, 50),
			P90Runs:   stats.Percentile(es, 90),
			P99Runs:   stats.Percentile(es, 99),
			Delays:    delays[name],
			TotalRuns: totalRuns[name],
		}
		if s.Sessions > 0 {
			s.ExposureRate = float64(s.Exposed) / float64(s.Sessions)
		}
		rep.Tools = append(rep.Tools, s)
	}
	if runErr != nil {
		rep.Cancelled = true
	}
	if len(rep.Violations) > 0 {
		rep.ReproOK = false
	}
	rep.Metrics = o.Metrics.Snapshot()
	return rep
}

// diffProgram runs the full oracle for corpus index i. ctx aborts the
// program's sessions at their next run boundary; an uncancellable ctx
// leaves them byte-identical to the context-free harness.
func (o DiffOptions) diffProgram(ctx context.Context, i int) *ProgramDiff {
	size := o.Size
	if o.Mixed {
		size = genprog.Size(i % 3)
	}
	cfg := genprog.SizeConfig(o.Seed+int64(i), size)
	if o.TSO {
		cfg = genprog.TSOSizeConfig(o.Seed+int64(i), size)
	}
	p := genprog.Generate(cfg)
	m := p.Manifest()
	pd := &ProgramDiff{
		Program:  p.Name(),
		Seed:     cfg.Seed,
		Size:     size.String(),
		Bugs:     len(m.Bugs),
		Threads:  p.Threads(),
		Objects:  p.Objects(),
		RunsUsed: make(map[string]int, len(DiffTools)),
	}
	fail := func(format string, args ...any) {
		pd.Violations = append(pd.Violations, fmt.Sprintf("%s: ", p.Name())+fmt.Sprintf(format, args...))
	}

	// adaptiveTool builds the session's tool and (when the controller is
	// attached and enabled) its per-target Tuner, diverting the engine's
	// metrics to the controller's per-target registry. With no controller
	// the tool is built exactly as the fixed harness builds it.
	adaptiveTool := func(name, target string) (core.Tool, *control.Target) {
		if o.Controller != nil {
			if tgt := o.Controller.TargetWithRegistry(target, obs.New()); tgt != nil {
				return newDiffTool(name, tgt.Registry(), o.TSO), tgt
			}
		}
		return newDiffTool(name, o.Metrics, o.TSO), nil
	}

	if err := checkReproducible(p, cfg); err != nil {
		fail("%v", err)
	}

	// Armed sessions: each planted bug in isolation, under each tool.
	for _, bug := range m.Bugs {
		variant := p.ArmOnly(bug.Index).Prog()
		for ti, name := range DiffTools {
			budget := o.MaxRuns
			if name == "tsvd" {
				budget = o.TSVDRuns
			}
			tool, tgt := adaptiveTool(name, fmt.Sprintf("%s/bug%d/%s", p.Name(), bug.Index, name))
			s := &core.Session{
				Prog:     variant,
				Tool:     tool,
				MaxRuns:  budget,
				BaseSeed: o.Seed + int64(i)*1_000_003 + int64(bug.Index)*1009 + int64(ti)*101 + 1,
				Metrics:  o.Metrics,
			}
			if tgt != nil {
				s.Tuner = tgt
			}
			out := s.ExposeCtx(ctx)
			tgt.ObserveOutcome(out)
			pd.RunsUsed[name] += len(out.Runs)
			oc := BugOutcome{Bug: bug.Index, Kind: bug.Kind.String(), Tool: name}
			if out.Bug != nil {
				if err := m.Check(out.Bug); err != nil {
					fail("tool %s, bug %d armed: %v", name, bug.Index, err)
				} else if out.Bug.ObjName() != bug.Obj {
					fail("tool %s, bug %d armed: exposed %s, want %s", name, bug.Index, out.Bug.ObjName(), bug.Obj)
				} else {
					oc.Runs = out.Bug.Run
					oc.Delays = out.Bug.Delays.Count
					if bug.Kind == core.StaleRead && out.Bug.Fence != nil {
						// Repair verification: apply the proposed fence and
						// replay the exposing schedule — the stale read must
						// be gone, and nothing else may fault.
						fenced := p.ArmOnly(bug.Index).WithFence(out.Bug.Fence.After).Prog()
						if rr := core.Replay(fenced, out.Bug, core.Options{}); rr.Fault != nil {
							fail("tool %s, bug %d armed: fence at %s does not repair: %v",
								name, bug.Index, out.Bug.Fence.After, rr.Fault.Err)
						}
						// And without the fence the same schedule reproduces.
						if rr := core.Replay(variant, out.Bug, core.Options{}); !rr.Reproduced {
							fail("tool %s, bug %d armed: exposing schedule did not replay: %s",
								name, bug.Index, rr.String())
						}
					}
				}
			}
			for _, err := range out.RunErrs() {
				fail("tool %s, bug %d armed: %v", name, bug.Index, err)
			}
			pd.Outcomes = append(pd.Outcomes, oc)
		}
	}

	// Disarmed control: the zero-FP invariant. No delay schedule any tool
	// can produce may fault a program whose probes are all guarded.
	disarmed := p.DisarmAll().Prog()
	for ti, name := range DiffTools {
		tool, tgt := adaptiveTool(name, fmt.Sprintf("%s/disarmed/%s", p.Name(), name))
		s := &core.Session{
			Prog:     disarmed,
			Tool:     tool,
			MaxRuns:  o.DisarmRuns,
			BaseSeed: o.Seed + int64(i)*1_000_003 + int64(ti)*7 + 500_009,
			Metrics:  o.Metrics,
		}
		if tgt != nil {
			s.Tuner = tgt
		}
		out := s.ExposeCtx(ctx)
		tgt.ObserveOutcome(out)
		pd.RunsUsed[name] += len(out.Runs)
		if out.Bug != nil {
			fail("tool %s, disarmed: false positive: %v", name, out.Bug)
		}
		for _, err := range out.RunErrs() {
			fail("tool %s, disarmed: %v", name, err)
		}
	}
	return pd
}

// checkReproducible asserts the per-seed bit-reproducibility claims:
// regeneration is byte-identical (script and manifest), the preparation
// trace is byte-identical across executions with one seed, and the
// streaming analyzer's plan is Analyze's, byte for byte.
func checkReproducible(p *genprog.Program, cfg genprog.Config) error {
	aopts := core.Options{TSO: cfg.TSO}
	q := genprog.Generate(cfg)
	if p.Fingerprint() != q.Fingerprint() {
		return fmt.Errorf("regeneration diverged for seed %d", cfg.Seed)
	}
	if !bytes.Equal(p.Manifest().JSON(), q.Manifest().JSON()) {
		return fmt.Errorf("manifest regeneration diverged for seed %d", cfg.Seed)
	}

	prepSeed := cfg.Seed*31 + 7
	tr1, err := diffPrepTrace(p, prepSeed)
	if err != nil {
		return err
	}
	tr2, err := diffPrepTrace(p, prepSeed)
	if err != nil {
		return err
	}
	var b1, b2 bytes.Buffer
	if err := tr1.WriteBinary(&b1); err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := tr2.WriteBinary(&b2); err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		return fmt.Errorf("preparation trace not reproducible at seed %d", prepSeed)
	}

	var want, got, stream bytes.Buffer
	if err := core.Analyze(tr1, aopts).WriteJSON(&want); err != nil {
		return err
	}
	if err := tr1.WriteStream(&stream); err != nil {
		return fmt.Errorf("write stream: %w", err)
	}
	sp, err := core.AnalyzeStream(&stream, aopts)
	if err != nil {
		return fmt.Errorf("streaming analysis: %w", err)
	}
	if err := sp.WriteJSON(&got); err != nil {
		return err
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		return fmt.Errorf("AnalyzeStream plan diverged from Analyze at seed %d", prepSeed)
	}
	return nil
}

// diffPrepTrace performs one delay-free preparation run and returns its
// trace.
func diffPrepTrace(p *genprog.Program, seed int64) (*trace.Trace, error) {
	wf := core.NewWaffle(core.Options{})
	wf.SetLabel(p.Name())
	hook := wf.HookForRun(1, nil)
	res := p.Prog().Execute(seed, hook)
	if res.Fault != nil {
		return nil, fmt.Errorf("preparation run faulted: %v", res.Fault.Err)
	}
	if res.Err != nil {
		return nil, fmt.Errorf("preparation run: %w", res.Err)
	}
	wf.FinishPreparation(&core.RunReport{Run: 1, End: res.End})
	tr := wf.PrepTrace()
	if tr == nil {
		return nil, fmt.Errorf("no preparation trace")
	}
	return tr, nil
}
