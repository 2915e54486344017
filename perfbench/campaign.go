package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"waffle/internal/obs"
	"waffle/internal/server"
)

// Programs per job in one campaign round: an SC job and a TSO job run side
// by side on the manager's two workers.
const (
	roundSC  = 60
	roundTSO = 30
)

// campaignWork drives an in-process server.Manager with an on-disk journal.
type campaignWork struct {
	seed    int64
	dir     string
	journal string
	mgr     *server.Manager
	reg     *obs.Registry // attached in traced runs only
	rounds  int
}

func newCampaign(cfg config, traced bool) (instance, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.out, "campaign-")
	if err != nil {
		return nil, err
	}
	w := &campaignWork{seed: cfg.seed, dir: dir, journal: filepath.Join(dir, "journal.jsonl")}
	if traced {
		w.reg = obs.New()
	}
	w.mgr, err = server.New(server.Options{Journal: w.journal, Workers: 2, Metrics: w.reg})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// Warm-up: one job on a corpus seed the measured rounds never use.
	st, err := w.mgr.Submit(server.JobSpec{Corpus: server.CorpusSpec{Seed: -cfg.seed - 1, Programs: 12, Size: "mixed"}})
	if err == nil {
		_, err = w.wait(st.ID, nil, nil)
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *campaignWork) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.mgr.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: draining campaign manager: %v\n", err)
	}
	os.RemoveAll(w.dir)
}

// wait long-polls a job's results until it is done, calling arrived with
// each page. Each poll is a span when op is set.
func (w *campaignWork) wait(id string, op *opTrace, arrived func([]*server.ProgramResult)) ([]*server.ProgramResult, error) {
	var all []*server.ProgramResult
	cursor := 0
	for {
		var sp int32
		if op != nil {
			sp = op.begin("server.results")
		}
		page, err := w.mgr.Results(context.Background(), id, cursor, 2*time.Second)
		if op != nil {
			op.end(sp, nil)
		}
		if err != nil {
			return nil, err
		}
		if len(page.Results) > 0 && arrived != nil {
			arrived(page.Results)
		}
		all = append(all, page.Results...)
		cursor = page.Next
		if page.Done {
			return all, nil
		}
	}
}

// arrivals shares the process CPU time among the programs of a round as
// their results arrive: each page of results, from either job, is charged
// the CPU time spent since the previous page, split evenly.
type arrivals struct {
	mu   sync.Mutex
	last time.Duration
	lat  []int64
}

func (a *arrivals) arrive(programs int) {
	now := cpuTime()
	a.mu.Lock()
	defer a.mu.Unlock()
	per := int64(now-a.last) / int64(programs)
	for k := 0; k < programs; k++ {
		a.lat = append(a.lat, per)
	}
	a.last = now
}

// jobRun is one job of a round, as the benchmark saw it.
type jobRun struct {
	kind    string
	results []*server.ProgramResult
	submit  time.Duration
	dur     time.Duration
	state   server.JobState
	err     error
}

func (w *campaignWork) runJob(op int64, kind string, spec server.JobSpec, arr *arrivals, tr *tracer, lane int32) *jobRun {
	jr := &jobRun{kind: kind}
	var ot *opTrace
	if tr != nil {
		ot = &opTrace{tr: tr, op: op, lane: lane, root: tr.begin("server.job."+kind, op, -1, lane)}
	}
	t0 := time.Now()
	var sp int32
	if ot != nil {
		sp = ot.begin("server.submit")
	}
	st, err := w.mgr.Submit(spec)
	if ot != nil {
		ot.end(sp, nil)
	}
	jr.submit = time.Since(t0)
	if err != nil {
		jr.err = err
		return jr
	}
	jr.results, jr.err = w.wait(st.ID, ot, func(page []*server.ProgramResult) { arr.arrive(len(page)) })
	jr.dur = time.Since(t0)
	if ot != nil {
		tr.end(ot.root, "", nil)
	}
	if s, err := w.mgr.Status(st.ID); err == nil {
		jr.state = s.State
	}
	return jr
}

func (w *campaignWork) run(lim limit, tr *tracer, digestOps int) *segment {
	seg := newSegment(digestOps)
	sizeBefore := fileSize(w.journal)
	var submits []int64
	jobTime := map[string]time.Duration{}
	jobs := map[string]int{}
	runsUsed := 0
	mark := markMem()
	start, cpu0 := time.Now(), cpuTime()
	for lim.more(seg.ops) {
		seg.cal.maybe()
		round := w.rounds
		w.rounds++
		corpus := w.seed*1_000_003 + int64(round)*100_003
		sc, tso := roundSC, roundTSO
		if lim.maxOps > 0 && lim.maxOps < sc+tso {
			sc, tso = (lim.maxOps+1)/2, lim.maxOps/2
		}
		specs := []struct {
			kind string
			spec server.JobSpec
		}{
			{"sc", server.JobSpec{Corpus: server.CorpusSpec{Seed: corpus, Programs: sc, Size: "mixed"}}},
			{"tso", server.JobSpec{Corpus: server.CorpusSpec{Seed: corpus, Programs: tso, Size: "mixed", TSO: true}}},
		}
		runs := make([]*jobRun, len(specs))
		arr := &arrivals{last: cpuTime()}
		var wg sync.WaitGroup
		for k, s := range specs {
			if tr != nil {
				s.spec.Engine.Core.Metrics = w.reg
			}
			wg.Add(1)
			go func(k int, kind string, spec server.JobSpec) {
				defer wg.Done()
				runs[k] = w.runJob(int64(round*len(specs)+k), kind, spec, arr, tr, int32(k))
			}(k, s.kind, s.spec)
		}
		wg.Wait()
		seg.lat = append(seg.lat, arr.lat...)
		for _, jr := range runs {
			submits = append(submits, int64(jr.submit))
			jobTime[jr.kind] += jr.dur
			jobs[jr.kind]++
			if jr.err != nil || jr.state != server.StateCompleted {
				seg.breach("round %d %s job: state %s, error %v", round, jr.kind, jr.state, jr.err)
			}
			for _, pr := range jr.results {
				w.check(seg, round, jr.kind, pr)
				runsUsed += pr.RunsUsed
			}
		}
	}
	seg.elapsed, seg.cpu = time.Since(start), cpuTime()-cpu0
	seg.mem = mark.since()

	if tr != nil {
		seg.spans = tr.snapshot()
		put := func(name string, v float64, unit string) { seg.perLayer[name] = metric{v, unit} }
		progs := float64(seg.ops)
		put("server.submit_us", percentileNS(submits, 50)/1e3, "us")
		for _, kind := range []string{"sc", "tso"} {
			if jobs[kind] > 0 {
				put("server.job_s."+kind, jobTime[kind].Seconds()/float64(jobs[kind]), "s")
			}
		}
		if progs > 0 {
			put("server.journal_bytes_per_program", float64(fileSize(w.journal)-sizeBefore)/progs, "B")
			put("server.runs_per_program", float64(runsUsed)/progs, "count")
			snap := w.reg.Snapshot()
			put("server.obs.session_runs_per_program", float64(snap.Counters["session.runs"])/progs, "count")
			put("server.obs.prepare_ms_per_program", float64(snap.Spans["phase.prepare"].TotalNS)/1e6/progs, "ms")
			put("server.obs.detect_ms_per_program", float64(snap.Spans["phase.detect"].TotalNS)/1e6/progs, "ms")
			put("server.obs.delays_per_program", float64(snap.Counters["inject.delays_injected"])/progs, "count")
			put("server.obs.waves_per_program", float64(snap.Counters["sched.waves"])/progs, "count")
		}
	}
	return seg
}

// check applies the campaign oracle to one committed program and adds it
// to the digest.
func (w *campaignWork) check(seg *segment, round int, kind string, pr *server.ProgramResult) {
	seg.ops++
	b, _ := json.Marshal(pr) // plain strings and numbers: cannot fail
	seg.digest.add("%d %s %s", round, kind, b)
	if len(pr.Violations) > 0 {
		seg.breach("round %d %s %s: %s", round, kind, pr.Program, pr.Violations[0])
		return
	}
	missed := 0
	for _, o := range pr.Outcomes {
		if o.Runs == 0 {
			missed++
			continue
		}
		seg.exposures++
		seg.exposureRuns += o.Runs
	}
	if missed > 0 {
		seg.fail("round %d %s %s: %d of %d planted bugs not exposed", round, kind, pr.Program, missed, pr.Bugs)
	}
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
