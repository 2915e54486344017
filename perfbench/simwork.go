package main

import (
	"fmt"
	"math/rand"
	"time"

	"waffle/internal/apps"
	"waffle/internal/core"
	"waffle/internal/trace"
)

// plantedSites is the ground truth for the 18 planted Table-4 bugs: the
// site at which each bug's fault manifests, as the scenarios in
// internal/apps plant it. A report on a bug test at any other site, or on
// a clean test at all, is a false positive.
var plantedSites = map[string]trace.SiteID{
	"Bug-1":  "ssh/channel/use",
	"Bug-2":  "ssh/socket/use",
	"Bug-3":  "nsub/router/use",
	"Bug-4":  "nsub/calls/use",
	"Bug-5":  "nswag/resolver/use",
	"Bug-6":  "fluent/formatter/use",
	"Bug-7":  "fluent/steps/use",
	"Bug-8":  "litedb/lock/on-event-written",
	"Bug-9":  "k8s/watcher/use",
	"Bug-10": "appins/lstnr/on-event-written",
	"Bug-11": "netmq/poller/chk-disposed",
	"Bug-12": "npgsql/pool/on-event-written",
	"Bug-13": "signalr/transport/on-event-written",
	"Bug-14": "appins/onfull/use",
	"Bug-15": "netmq/queue/on-event-written",
	"Bug-16": "mqtt/dispatcher/on-event-written",
	"Bug-17": "mqtt/keepalive/on-event-written",
	"Bug-18": "k8s/informer/use",
}

// simWork runs Waffle sessions (core.Session.Expose) one after another,
// one session per operation.
type simWork struct {
	tests  []*apps.Test
	budget int
	seed   int64
	// shuffle visits the tests in a fresh seeded order on every pass, so
	// that any prefix of a run is an unbiased sample of the suite.
	shuffle bool
	// majority requires every planted bug to be exposed in a majority of
	// its sessions, Table 4's criterion (paper-bugs); suite-scan's budget
	// of 2 is expected to miss some bugs altogether.
	majority bool

	perm     []int
	permPass int
}

func newPaperBugs(cfg config) (instance, error) {
	w := &simWork{tests: apps.AllBugs(), budget: 50, seed: cfg.seed, majority: true}
	return w, w.warm()
}

func newSuiteScan(cfg config) (instance, error) {
	var tests []*apps.Test
	for _, a := range apps.Registry() {
		tests = append(tests, a.Tests...)
	}
	w := &simWork{tests: tests, budget: 2, seed: cfg.seed, shuffle: true}
	return w, w.warm()
}

// warm checks the ground truth covers every planted bug, then runs a few
// sessions on seeds the measured run never uses.
func (w *simWork) warm() error {
	for _, t := range w.tests {
		if t.Bug != nil && plantedSites[t.Bug.ID] == "" {
			return fmt.Errorf("no planted site known for %s", t.Name)
		}
	}
	for i := 0; i < 18 && i < len(w.tests); i++ {
		wf := core.NewWaffle(core.Options{})
		s := core.Session{Prog: w.tests[i].Prog, Tool: wf, MaxRuns: w.budget, BaseSeed: -1 - int64(i)}
		s.Expose()
	}
	return nil
}

func (w *simWork) close() {}

// pick returns operation i's test and base seed.
func (w *simWork) pick(i int) (*apps.Test, int64) {
	base := w.seed*1_000_003 + int64(i)*7919 + 1
	n := len(w.tests)
	if !w.shuffle {
		return w.tests[i%n], base
	}
	if pass := i / n; w.perm == nil || pass != w.permPass {
		w.perm = rand.New(rand.NewSource(w.seed*7_777 + int64(pass))).Perm(n)
		w.permPass = pass
	}
	return w.tests[w.perm[i%n]], base
}

// simAcc accumulates what the sessions reported, for the per-layer
// metrics.
type simAcc struct {
	sessions, runs       int
	delays, skipped      int
	analyzed, events     int
	pairs, interferences int
	perBug               map[string][2]int // bug ID → sessions, exposed
}

func (w *simWork) run(lim limit, tr *tracer, digestOps int) *segment {
	seg := newSegment(digestOps)
	acc := simAcc{perBug: map[string][2]int{}}
	mark := markMem()
	start, cpu0 := time.Now(), cpuTime()
	for i := 0; lim.more(i); i++ {
		seg.cal.maybe()
		test, base := w.pick(i)
		wf := core.NewWaffle(core.Options{})
		wf.SetLabel(test.Name)
		s := core.Session{Prog: test.Prog, Tool: wf, MaxRuns: w.budget, BaseSeed: base}
		var op *opTrace
		if tr != nil {
			op = &opTrace{tr: tr, op: int64(i), root: tr.begin("session.expose", int64(i), -1, 0)}
			s.Prog = &tracedProgram{Program: test.Prog, op: op}
			s.Tool = &tracedWaffle{Waffle: wf, op: op}
		}
		c0 := cpuTime()
		out := s.Expose()
		seg.lat = append(seg.lat, int64(cpuTime()-c0))
		if op != nil {
			tr.end(op.root, "", nil)
		}
		seg.ops++
		w.check(seg, &acc, i, test, base, wf, out)
	}
	seg.elapsed, seg.cpu = time.Since(start), cpuTime()-cpu0
	seg.mem = mark.since()

	// Table 4's criterion: a bug counts as found when a majority of its
	// sessions expose it.
	for id, c := range acc.perBug {
		if w.majority && c[1]*2 <= c[0] {
			seg.breach("%s exposed in %d of %d sessions, not a majority", id, c[1], c[0])
		}
	}
	if tr != nil {
		seg.spans = tr.snapshot()
		simLayers(seg, analyzeSpans(seg.spans), acc)
	}
	return seg
}

// check applies the oracle to one session and adds it to the digest.
func (w *simWork) check(seg *segment, acc *simAcc, i int, test *apps.Test, base int64, wf *core.Waffle, out *core.Outcome) {
	var site trace.SiteID
	bugRun := 0
	if out.Bug != nil {
		site, bugRun = out.Bug.FaultSite(), out.Bug.Run
	}
	delays, skipped := 0, 0
	ends := make([]int64, len(out.Runs))
	for k, r := range out.Runs {
		delays += r.Stats.Count
		skipped += r.Stats.Skipped
		ends[k] = int64(r.End)
	}
	pairs := 0
	if p := wf.Plan(); p != nil {
		pairs = len(p.Pairs)
		acc.analyzed++
		acc.pairs += pairs
		for _, sites := range p.Interfere {
			acc.interferences += len(sites)
		}
	}
	if tr := wf.PrepTrace(); tr != nil {
		acc.events += len(tr.Events)
	}
	acc.sessions++
	acc.runs += len(out.Runs)
	acc.delays += delays
	acc.skipped += skipped
	seg.digest.add("%d %s %d bug=%s@%d runs=%d delays=%d skipped=%d pairs=%d dff=%v ends=%v",
		i, test.Name, base, site, bugRun, len(out.Runs), delays, skipped, pairs, out.DelayFreeFaults, ends)

	if errs := out.RunErrs(); len(errs) > 0 {
		seg.breach("%s seed %d: %v", test.Name, base, errs[0])
		return
	}
	if test.Bug == nil {
		if out.Bug != nil {
			seg.breach("%s seed %d: false positive at %s", test.Name, base, site)
		}
		return
	}
	c := acc.perBug[test.Bug.ID]
	c[0]++
	switch want := plantedSites[test.Bug.ID]; {
	case out.Bug != nil && site != want:
		seg.breach("%s seed %d: exposed %s, planted at %s", test.Name, base, site, want)
	case out.Bug != nil:
		c[1]++
		seg.exposures++
		seg.exposureRuns += bugRun
	default:
		// Waffle is randomized: a session may end its budget without the
		// bug (Bug-11 in about 3% of its sessions at budget 50). That is an
		// outcome the session reports correctly, not a failed operation;
		// it is counted here and in session.missed_pct.
		seg.extra["missed_planted"] = metric{seg.extra["missed_planted"].Value + 1, "count"}
	}
	acc.perBug[test.Bug.ID] = c
}

// simLayers derives the per-layer metrics of a traced session segment.
func simLayers(seg *segment, st spanStats, acc simAcc) {
	put := func(name string, v float64, unit string) { seg.perLayer[name] = metric{v, unit} }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	prepRuns := float64(st.count["sim.execute.prep"])
	detectRuns := float64(st.count["sim.execute.detect"])
	prepCalls, injCalls := float64(st.hookN[hookPrep]), float64(st.hookN[hookInject])

	put("sim.plain_run_us", st.meanUS("sim.execute.plain"), "us")
	put("sim.plain_ns_per_access", div(float64(st.totalNS["sim.execute.plain"]), prepCalls), "ns")
	put("trace.new_recorder_us", st.meanUS("trace.new_recorder"), "us")
	put("trace.prep_run_us", st.meanUS("sim.execute.prep"), "us")
	put("trace.events_per_run", div(prepCalls, prepRuns), "count")
	put("trace.ns_per_event", div(float64(st.hookNS[hookPrep]), prepCalls), "ns")
	put("analyze.prepare_us", st.meanUS("analyze.prepare"), "us")
	put("analyze.events_per_s", div(float64(acc.events), float64(st.totalNS["analyze.prepare"])/1e9), "1/s")
	put("analyze.pairs", div(float64(acc.pairs), float64(acc.analyzed)), "count")
	put("analyze.interference_pairs", div(float64(acc.interferences)/2, float64(acc.analyzed)), "count")
	put("inject.new_injector_us", st.meanUS("inject.new_injector"), "us")
	put("inject.detect_run_us", st.meanUS("sim.execute.detect"), "us")
	put("inject.hook_calls_per_run", div(injCalls, detectRuns), "count")
	put("inject.hook_ns_per_call", div(float64(st.hookNS[hookInject]), injCalls), "ns")
	put("inject.delays_per_run", div(float64(acc.delays), detectRuns), "count")
	put("inject.skipped_per_run", div(float64(acc.skipped), detectRuns), "count")
	put("inject.exposures_per_delay", div(float64(seg.exposures), float64(acc.delays)), "ratio")
	put("session.runs_per_session", div(float64(acc.runs), float64(acc.sessions)), "count")
	bugSessions, exposed := 0, 0
	for _, c := range acc.perBug {
		bugSessions += c[0]
		exposed += c[1]
	}
	put("session.missed_pct", div(100*float64(bugSessions-exposed), float64(bugSessions)), "%")
}
