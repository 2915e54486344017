package main

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"waffle/internal/live"
	"waffle/internal/memmodel"
	"waffle/internal/trace"
	"waffle/internal/workload"
)

// The live-service load: an open loop at a fixed rate with at most two
// requests in flight, into live.Monitor.Do in process (no HTTP).
const (
	liveRate     = 150.0 // requests per second
	liveInFlight = 2
	liveSample   = 0.25
	liveSLO      = 1.0
	liveLateNS   = int64(time.Millisecond) // a dispatch this late counts as late
	// liveEpoch is how many requests one deployment of the monitor serves
	// before the service is redeployed with a fresh one. A single monitor
	// decays its planted sites' injection probabilities to zero within a
	// few dozen admitted requests; redeploying keeps every part of a run
	// measuring the whole record → analyze → detect pipeline. Each
	// deployment derives its delay budget from its own baseline p99, so
	// longer deployments derive it from more requests: over 300 requests
	// the budget flipped between the 20, 30 and 50 ms buckets with the
	// host's noise and took op_ms_p99 with it.
	liveEpoch = 600
	// liveP99Window is how many consecutive requests each p99 of op_ms_p99
	// is taken over: a 30-second run has four windows, each with ten
	// requests beyond its p99, and reports their median.
	liveP99Window = 1000
)

// checkoutBody plants a use-after-free: the fulfillment worker's send on
// the payment session naturally beats the handler's close by ~4ms, so the
// delay-free run never faults while a delay at the use flips the order.
// (Copied from examples/live-service.)
func checkoutBody(t *live.Thread, h *live.Heap) {
	sess := h.NewRef("payment-session")
	sess.Init(t, "checkout.OpenSession")
	w := t.Spawn("fulfillment", func(w *live.Thread) {
		w.Sleep(1 * time.Millisecond) // assemble the order
		sess.Use(w, "checkout.fulfillment.Charge")
	})
	t.Sleep(5 * time.Millisecond) // confirmation page render
	sess.Dispose(t, "checkout.CloseSession")
	t.Join(w)
}

// profileBody plants the mirror-image use-before-init: the loader lazily
// initializes the cache ~1ms in, the renderer reads it at ~6ms.
// (Copied from examples/live-service.)
func profileBody(t *live.Thread, h *live.Heap) {
	cache := h.NewRef("avatar-cache")
	w := t.Spawn("loader", func(w *live.Thread) {
		w.Sleep(1 * time.Millisecond) // fetch from blob store
		cache.Init(w, "profile.loader.Fill")
	})
	t.Sleep(6 * time.Millisecond) // template pipeline
	cache.Use(t, "profile.Render")
	t.Join(w)
	cache.Dispose(t, "profile.Evict")
}

// livePath is one endpoint of the service. planted is the site of its
// planted bug, empty on the clean endpoints.
type livePath struct {
	path    string
	weight  int
	planted trace.SiteID
	body    func(*live.Thread, *live.Heap)
}

func livePaths() []livePath {
	return []livePath{
		{"/checkout", 2, "checkout.fulfillment.Charge", checkoutBody},
		{"/profile", 2, "profile.Render", profileBody},
		{"/browse", 3, "", workload.Spec{
			Prefix: "browse", Threads: 2, LocalObjs: 1, LocalOps: 2,
			SharedObjs: 2, SharedUses: 2, PreForkObjs: 1, Spacing: 100,
		}.LiveBody()},
		{"/search", 1, "", workload.Spec{
			Prefix: "search", Threads: 3, LocalObjs: 2, LocalOps: 2,
			SharedObjs: 3, SharedUses: 2, SyncedObjs: 1, Spacing: 100,
		}.LiveBody()},
	}
}

type liveWork struct {
	seed  int64
	paths []livePath
	mons  []*live.Monitor // one per deployment of the last drive
}

func newLive(cfg config) (instance, error) {
	w := &liveWork{seed: cfg.seed, paths: livePaths()}
	// Warm-up on a scratch deployment, so the measured ones start with no
	// plans, as a freshly deployed service does. Its requests go back to
	// back, so the set-up time is the monitor's and the bodies', not the
	// generator's schedule.
	scratch := &liveWork{seed: -cfg.seed - 1, paths: w.paths}
	scratch.drive(16, false, nil)
	return w, nil
}

func (w *liveWork) close() {}

// liveReq is one request as the generator saw it.
type liveReq struct {
	path     int
	rep      live.RequestReport
	lag, lat int64 // dispatch lateness and latency, both from the due time
	do       int64 // time inside Monitor.Do: the operation's latency
}

// kind classifies a request by what the monitor did with it.
func (r *liveReq) kind() string {
	switch {
	case r.rep.SampledOut:
		return "sampled_out"
	case r.rep.Recorded:
		return "record"
	case r.rep.Admitted:
		return "detect"
	}
	return "plain"
}

// drive issues n requests, on the open-loop schedule when paced and back
// to back otherwise, and returns them in issue order with the time from the
// first due time to the last completion.
func (w *liveWork) drive(n int, paced bool, tr *tracer) ([]liveReq, time.Duration) {
	rng := rand.New(rand.NewSource(w.seed))
	var mix []int
	for i, p := range w.paths {
		for k := 0; k < p.weight; k++ {
			mix = append(mix, i)
		}
	}
	plan := make([]int, n)
	for i := range plan {
		plan[i] = mix[rng.Intn(len(mix))]
	}

	w.mons = nil
	for k := 0; k*liveEpoch < n; k++ {
		seed := w.seed*1_000_003 + int64(k)
		w.mons = append(w.mons, live.NewMonitor(seed, live.Options{SampleRate: liveSample, SLO: liveSLO}))
	}
	reqs := make([]liveReq, n)
	interval := float64(time.Second) / liveRate
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for lane := 0; lane < liveInFlight; lane++ {
		wg.Add(1)
		go func(lane int32) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Now()
				if paced {
					due = start.Add(time.Duration(float64(i) * interval))
					time.Sleep(time.Until(due))
				}
				p := w.paths[plan[i]]
				var root, sp int32
				if tr != nil {
					root = tr.beginAt("gen.request", int64(i), -1, lane, due)
					sp = tr.begin("live.do", int64(i), root, lane)
				}
				disp := time.Now()
				rep := w.mons[i/liveEpoch].Do(p.path, p.body)
				end := time.Now()
				r := liveReq{path: plan[i], rep: rep, lag: int64(disp.Sub(due)), lat: int64(end.Sub(due)), do: int64(end.Sub(disp))}
				if tr != nil {
					tr.end(sp, "live.do."+r.kind(), nil)
					tr.end(root, "", nil)
				}
				reqs[i] = r
			}
		}(int32(lane))
	}
	wg.Wait()
	return reqs, time.Since(start)
}

func (w *liveWork) run(lim limit, tr *tracer, _ int) *segment {
	seg := newSegment(0)
	n := lim.maxOps
	if n == 0 {
		n = int(math.Round(liveRate * time.Until(lim.deadline).Seconds()))
	}
	mark, cpu0 := markMem(), cpuTime()
	reqs, elapsed := w.drive(n, true, tr)
	seg.elapsed, seg.cpu = elapsed, cpuTime()-cpu0
	seg.mem = mark.since()
	seg.ops = n
	seg.p99Window = liveP99Window

	// toExpose counts, per deployment and planted path, the admitted
	// requests up to and including the first exposure: the live analog of
	// Table 4's runs to expose (the recording request is the preparation
	// run). A negative count marks an exposure already seen.
	type key struct{ epoch, path int }
	toExpose := map[key]int{}
	exposed := map[trace.SiteID]bool{}
	kindDo := map[string][]int64{}
	due := make([]int64, 0, len(reqs))
	var lagMax int64
	late, admitted, delays, bugs := 0, 0, 0, 0
	for i := range reqs {
		r := &reqs[i]
		p := w.paths[r.path]
		k := key{i / liveEpoch, r.path}
		seg.lat = append(seg.lat, r.do)
		due = append(due, r.lat)
		kindDo[r.kind()] = append(kindDo[r.kind()], r.do)
		if r.lag > lagMax {
			lagMax = r.lag
		}
		if r.lag > liveLateNS {
			late++
		}
		if r.rep.Admitted {
			admitted++
			delays += r.rep.Delays
			if p.planted != "" && toExpose[k] >= 0 {
				toExpose[k]++
			}
		}
		switch {
		case r.rep.Bug != nil:
			bugs++
			site := r.rep.Bug.FaultSite()
			if p.planted == "" || site != p.planted {
				seg.breach("request %d %s: bug reported at %s, not a planted site", i, p.path, site)
				continue
			}
			exposed[site] = true
			if c := toExpose[k]; c > 0 {
				seg.exposures++
				seg.exposureRuns += c
				toExpose[k] = -1
			}
		case r.rep.Fault != nil:
			var nre *memmodel.NullRefError
			if p.planted == "" || !errors.As(r.rep.Fault.Err, &nre) {
				seg.breach("request %d %s: harness error: %v", i, p.path, r.rep.Fault.Err)
			}
		}
	}
	for _, p := range w.paths {
		if p.planted != "" && !exposed[p.planted] {
			seg.breach("planted bug at %s not exposed in %d requests", p.planted, n)
		}
	}
	missed := 0
	for _, c := range toExpose {
		if c > 0 {
			missed++
		}
	}
	seg.extra["deployments_missed"] = metric{float64(missed), "count"}

	var budgets []float64
	truncated := int64(0)
	for _, m := range w.mons {
		budgets = append(budgets, float64(m.BudgetNS()))
		truncated += m.Metrics().Snapshot().Counters["live.truncated_delays"]
	}
	seg.extra["slo_budget_ms"] = metric{median(budgets) / 1e6, "ms"}
	// The latency a client of the open loop sees includes the wait for a
	// free lane.
	seg.extra["due_op_ms_p50"] = metric{percentileNS(due, 50) / 1e6, "ms"}
	seg.extra["due_op_ms_p99"] = metric{windowP99(due, liveP99Window) / 1e6, "ms"}

	put := func(name string, v float64, unit string) { seg.perLayer[name] = metric{v, unit} }
	for _, k := range []string{"plain", "sampled_out", "record", "detect"} {
		put("live.do_us."+k+".p50", percentileNS(kindDo[k], 50)/1e3, "us")
		put("live.do_us."+k+".p99", percentileNS(kindDo[k], 99)/1e3, "us")
	}
	if len(kindDo["detect"]) > 0 && len(kindDo["sampled_out"]) > 0 {
		for _, q := range []struct {
			name string
			p    float64
		}{{"p50", 50}, {"p99", 99}} {
			added := percentileNS(kindDo["detect"], q.p) - percentileNS(kindDo["sampled_out"], q.p)
			put("live.added_us."+q.name, added/1e3, "us")
		}
	}
	put("live.admitted_pct", 100*float64(admitted)/float64(n), "%")
	if admitted > 0 {
		put("live.delays_per_admitted", float64(delays)/float64(admitted), "count")
		put("live.bugs_per_admitted", float64(bugs)/float64(admitted), "count")
	}
	put("live.truncated_delays", float64(truncated), "count")
	put("live.budget_ns", median(budgets), "ns")
	put("gen.lag_ms_max", float64(lagMax)/1e6, "ms")
	put("gen.late_pct", 100*float64(late)/float64(n), "%")
	if tr != nil {
		seg.spans = tr.snapshot()
	}
	return seg
}
