package core

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"

	"waffle/internal/obs"
	"waffle/internal/sim"
	"waffle/internal/trace"
	"waffle/internal/vclock"
)

// Analyze implements Waffle's trace analyzer (§5, component 2): from one
// unperturbed preparation-run trace it constructs the candidate set S
// (near-miss pairs surviving parent-child pruning), the per-site delay
// lengths, and the interference set I.
//
// The passes' early breaks assume the trace is in nondecreasing time
// order, as Recorder output is; callers holding an externally loaded trace
// check it with CheckTimeSorted first.
func Analyze(tr *trace.Trace, opts Options) *Plan {
	opts = opts.WithDefaults()
	defer opts.Metrics.Span("phase.analyze").Time()()
	opts.Metrics.Counter("analyze.trace_events").Add(int64(len(tr.Events)))
	return analyze(tr.Label, tr.Events, opts)
}

// ErrUnsortedStream reports a trace whose events are not in nondecreasing
// timestamp order. The analyzer's windowed scans stop early on the first
// event past the window, so an unsorted trace would silently lose pairs;
// AnalyzeStream and CheckTimeSorted report the violation instead.
var ErrUnsortedStream = errors.New("core: trace events out of time order")

// CheckTimeSorted returns an error wrapping ErrUnsortedStream that names
// the first event out of time order, or nil for a time-sorted trace.
func CheckTimeSorted(tr *trace.Trace) error {
	for i := 1; i < len(tr.Events); i++ {
		if prev, ev := &tr.Events[i-1], &tr.Events[i]; ev.T < prev.T {
			return fmt.Errorf("%w: event %d at %v after %v", ErrUnsortedStream, ev.Seq, ev.T, prev.T)
		}
	}
	return nil
}

// AnalyzeStream analyzes a WFTS event stream: it decodes the events,
// rejects an unsorted stream with ErrUnsortedStream, and runs the same
// analyzer as Analyze, so the plan is Analyze's byte for byte.
func AnalyzeStream(r io.Reader, opts Options) (*Plan, error) {
	tr, err := trace.ReadStream(r)
	if err != nil {
		return nil, err
	}
	if err := CheckTimeSorted(tr); err != nil {
		return nil, err
	}
	return Analyze(tr, opts), nil
}

// nearMiss applies the §3.1/§4.1 candidate rules to an ordered event pair
// (e1 precedes e2 in the trace): a use within δ after another thread's
// initialization is a use-before-init candidate, a disposal within δ after
// another thread's use is a use-after-free candidate, and pairs ordered by
// fork-propagated vector clocks are pruned unless the parent-child
// ablation is active. pruned (nil-safe) counts the dynamic near-miss
// instances the fork-clock rule rejected: pairs that would have entered S
// without §4.1's parent-child analysis.
func nearMiss(e1, e2 *trace.Event, opts Options, pruned *obs.Counter) (BugKind, bool) {
	var kind BugKind
	staleOnly := false // pair shape exists only as a TSO stale-read candidate
	switch {
	case e1.Kind == trace.KindInit && e2.Kind == trace.KindUse:
		kind = UseBeforeInit
	case e1.Kind == trace.KindUse && e2.Kind == trace.KindDispose:
		kind = UseAfterFree
	case opts.TSO && e1.Kind == trace.KindDispose && e2.Kind == trace.KindUse:
		kind = StaleRead
		staleOnly = true
	default:
		return 0, false
	}
	if e1.TID == e2.TID {
		return 0, false
	}
	gap := e2.T.Sub(e1.T)
	inWindow := gap >= 0 && gap < opts.Window
	if !opts.DisableParentChild && vclock.Ordered(e1.Clock, e2.Clock) {
		// Fork-ordered pairs cannot reorder, so they are never UBI/UAF
		// candidates — but under TSO an ordered cross-thread store→read
		// within the window is exactly where a buffered store can be
		// observed stale: the write commits late, not the write executes
		// late. (Use→Dispose stays pruned: the first access is a read;
		// there is no store whose visibility a flush delay could hold back.)
		if opts.TSO && kind != UseAfterFree && inWindow {
			return StaleRead, true
		}
		// Count only instances the remaining rules would have admitted, so
		// the metric reads as "work the pruning rule actually saved".
		if !staleOnly && inWindow {
			pruned.Inc()
		}
		return 0, false
	}
	if staleOnly || !inWindow {
		// Unordered dispose→use is a plain race the SC rules already
		// model; the TSO shape is only meaningful on ordered pairs.
		return 0, false
	}
	return kind, true
}

// pairAgg accumulates one candidate pair during pass 1. key packs the
// pair's dense site IDs and kind (packPair); ord packs the same fields by
// string rank once ranks exist, so sorting by ord yields the plan order.
// head links the pair's dynamic instances (see analyze), -1 for none.
type pairAgg struct {
	key, ord uint64
	gap      sim.Duration
	count    int
	head     int32
}

// packPair packs two non-negative int32 identifiers and a bug kind into
// one sortable key: a in bits 33–63, b in bits 2–32, kind in bits 0–1.
func packPair(a, b int32, kind BugKind) uint64 {
	return uint64(a)<<33 | uint64(b)<<2 | uint64(kind)
}

// groupBy is a counting sort of event indexes by a dense key: the events
// with key k are idx[start[k]:start[k+1]], in trace order.
type groupBy struct {
	start []int32
	idx   []int32
}

func (g *groupBy) of(k int32) []int32 { return g.idx[g.start[k]:g.start[k+1]] }

// fill groups event indexes 0..len(keys)-1 by keys[i] ∈ [0, n) into idx,
// which must have len(keys) elements.
func (g *groupBy) fill(keys []int32, n int, idx []int32) {
	g.start = make([]int32, n+1)
	for _, k := range keys {
		g.start[k+1]++
	}
	for k := 1; k <= n; k++ {
		g.start[k] += g.start[k-1]
	}
	next := slices.Clone(g.start[:n])
	for i, k := range keys {
		idx[next[k]] = int32(i)
		next[k]++
	}
	g.idx = idx
}

// scratch is the working memory of one analysis: everything analyze
// allocates apart from the plan it returns.
type scratch struct {
	ids     []int32 // per-event site, object and thread IDs, then the groupings
	sites   map[trace.SiteID]int32
	names   []trace.SiteID // site name by site ID
	objs    map[trace.ObjID]int32
	tids    map[int]int32
	pairIdx map[uint64]int32 // packPair key → index into pairs
	pairs   []pairAgg
	insts   []int32
	edges   []uint64
	tmp     []uint64
}

// spare keeps one released scratch for the next analysis. A per-input
// scan analyzes traces back to back, so one spare serves nearly every
// call, and an analysis running concurrently allocates its own. A
// sync.Pool, which keeps one scratch per P plus victims across a GC,
// measured 6% lower suite-scan throughput than this single slot on a
// 2-vCPU VM. Scratch that served a trace over maxSpareEvents is left to
// the collector.
var spare atomic.Pointer[scratch]

const maxSpareEvents = 1 << 16

func getScratch() *scratch {
	if sc := spare.Swap(nil); sc != nil {
		return sc
	}
	return &scratch{
		sites:   make(map[trace.SiteID]int32),
		objs:    make(map[trace.ObjID]int32),
		tids:    make(map[int]int32),
		pairIdx: make(map[uint64]int32),
	}
}

// release empties sc, dropping its references into the trace, and keeps
// it as the spare unless it served a trace larger than maxSpareEvents.
func (sc *scratch) release(events int) {
	if events > maxSpareEvents {
		return
	}
	clear(sc.sites)
	clear(sc.names)
	clear(sc.objs)
	clear(sc.tids)
	clear(sc.pairIdx)
	sc.names, sc.pairs, sc.insts, sc.edges = sc.names[:0], sc.pairs[:0], sc.insts[:0], sc.edges[:0]
	spare.Store(sc)
}

// analyze runs the three analysis passes over time-sorted events on dense
// integer IDs. One pass over the events interns each site, object and
// thread to an int32 in first-appearance order; every later lookup is an
// array index. Site names are compared as strings only to rank the sites
// that appear in candidate pairs, which fixes the plan's order.
func analyze(label string, events []trace.Event, opts Options) *Plan {
	n := len(events)
	if int64(n) > 1<<31-1 {
		panic("core: trace too large for 32-bit event indexes")
	}
	sc := getScratch()
	defer sc.release(n)

	// Interning.
	if cap(sc.ids) < 5*n {
		sc.ids = make([]int32, 5*n)
	}
	ids := sc.ids[:5*n]
	siteOf, objOf, tidOf := ids[:n:n], ids[n:2*n:2*n], ids[2*n:3*n:3*n]
	lastTID, lastTIDID := 0, int32(-1)
	for i := range events {
		e := &events[i]
		s, ok := sc.sites[e.Site]
		if !ok {
			s = int32(len(sc.names))
			sc.sites[e.Site] = s
			sc.names = append(sc.names, e.Site)
		}
		siteOf[i] = s
		o, ok := sc.objs[e.Obj]
		if !ok {
			o = int32(len(sc.objs))
			sc.objs[e.Obj] = o
		}
		objOf[i] = o
		if lastTIDID < 0 || e.TID != lastTID {
			t, ok := sc.tids[e.TID]
			if !ok {
				t = int32(len(sc.tids))
				sc.tids[e.TID] = t
			}
			lastTID, lastTIDID = e.TID, t
		}
		tidOf[i] = lastTIDID
	}
	siteNames := sc.names
	var byObj, byThread groupBy
	byObj.fill(objOf, len(sc.objs), ids[3*n:4*n:4*n])
	byThread.fill(tidOf, len(sc.tids), ids[4*n:])

	// Pass 1: near-miss candidate pairs per object (§3.1, §4.1). The inner
	// loop breaks at the first event a full window past e1, which is only
	// sound on a time-sorted trace. Each dynamic instance is kept for pass
	// 3 as an int32 triple (e1, e2, next): its event indexes and the
	// previous instance of the same pair.
	pruned := opts.Metrics.Counter("analyze.pairs_pruned")
	for o := range int32(len(sc.objs)) {
		idxs := byObj.of(o)
		for i, i1 := range idxs {
			e1 := &events[i1]
			if !e1.Kind.IsMemOrder() {
				continue
			}
			for _, i2 := range idxs[i+1:] {
				e2 := &events[i2]
				if e2.T.Sub(e1.T) >= opts.Window {
					break
				}
				kind, ok := nearMiss(e1, e2, opts, pruned)
				if !ok {
					continue
				}
				key := packPair(siteOf[i1], siteOf[i2], kind)
				p, ok := sc.pairIdx[key]
				if !ok {
					p = int32(len(sc.pairs))
					sc.pairIdx[key] = p
					sc.pairs = append(sc.pairs, pairAgg{key: key, head: -1})
				}
				pa := &sc.pairs[p]
				pa.count++
				if gap := e2.T.Sub(e1.T); gap > pa.gap {
					pa.gap = gap
				}
				sc.insts = append(sc.insts, i1, i2, pa.head)
				pa.head = int32(len(sc.insts)/3 - 1)
			}
		}
	}
	pairs, insts := sc.pairs, sc.insts
	opts.Metrics.Counter("analyze.candidate_pairs").Add(int64(len(pairs)))
	if len(pairs) == 0 {
		opts.Metrics.Counter("analyze.interference_edges").Add(0)
		return &Plan{
			Label:     label,
			Window:    opts.Window,
			DelayLen:  make(map[trace.SiteID]sim.Duration),
			Interfere: make(map[trace.SiteID][]trace.SiteID),
			Probs:     make(map[trace.SiteID]float64),
		}
	}

	// Rank the sites that appear in pairs by name; rank is -1 elsewhere.
	// inj marks the injection sites (pair delay sites) by site ID.
	rank := make([]int32, len(siteNames))
	inj := make([]bool, len(siteNames))
	for i := range rank {
		rank[i] = -1
	}
	var ranked []int32
	for i := range pairs {
		d, t := int32(pairs[i].key>>33), int32(pairs[i].key>>2&(1<<31-1))
		inj[d] = true
		for _, s := range [2]int32{d, t} {
			if rank[s] < 0 {
				rank[s] = 0
				ranked = append(ranked, s)
			}
		}
	}
	slices.SortFunc(ranked, func(a, b int32) int { return strings.Compare(string(siteNames[a]), string(siteNames[b])) })
	rankedNames := make([]trace.SiteID, len(ranked))
	for r, s := range ranked {
		rank[s] = int32(r)
		rankedNames[r] = siteNames[s]
	}

	// S in (delay, target, kind) string order, then pass 2: per-site delay
	// lengths — len(ℓ1) is the largest gap among pairs delaying at ℓ1
	// (§4.3) — and initial injection probabilities. The DelayLen entry is
	// created even when the largest gap is zero (simultaneous timestamps):
	// the injector treats map membership as "is a candidate", and delayFor
	// floors the injected delay at MinDelay, so a zero-gap candidate still
	// receives a delay long enough to flip the order.
	for i := range pairs {
		k := pairs[i].key
		pairs[i].ord = packPair(rank[k>>33], rank[k>>2&(1<<31-1)], BugKind(k&3))
	}
	slices.SortFunc(pairs, func(a, b pairAgg) int { return cmp.Compare(a.ord, b.ord) })
	nInj := 0
	for i := range ranked {
		if inj[ranked[i]] {
			nInj++
		}
	}
	plan := &Plan{
		Label:    label,
		Window:   opts.Window,
		Pairs:    make([]Pair, len(pairs)),
		DelayLen: make(map[trace.SiteID]sim.Duration, nInj),
		Probs:    make(map[trace.SiteID]float64, nInj),
	}
	for i, p := range pairs {
		plan.Pairs[i] = Pair{
			Delay:  rankedNames[p.ord>>33],
			Target: rankedNames[p.ord>>2&(1<<31-1)],
			Kind:   BugKind(p.ord & 3),
			Gap:    p.gap,
			Count:  p.count,
		}
	}
	for _, p := range plan.Pairs {
		if cur, ok := plan.DelayLen[p.Delay]; !ok || p.Gap > cur {
			plan.DelayLen[p.Delay] = p.Gap
		}
		plan.Probs[p.Delay] = 1.0
	}

	// Pass 3: the interference set I (§4.4). For a dynamic instance (ℓ1 at
	// τ1, ℓ2 at τ2), any injection site ℓ* exercised by ℓ2's thread in
	// [τ1−δ, τ2] would, if delayed, block that thread and cancel a delay
	// at ℓ1 — record {ℓ1, ℓ*}. The scan stops at ℓ2's trace position (its
	// Seq), not its timestamp. ℓ* == ℓ1 is excluded: another thread
	// reaching the same site is the concurrency being provoked, not a
	// cancellation, and a self-edge would make interferenceLive forbid
	// concurrent delays at one site across threads — a restriction the
	// paper's Fig. 5 window does not call for.
	//
	// The sorted pairs visit every instance of one delay site together, so
	// seen (the last delay rank that recorded each partner) drops repeats
	// of an edge from the delay side. Each edge is kept in both directions,
	// packed as (rank a)<<32 | rank b.
	seen := make([]int32, len(ranked))
	for i := range seen {
		seen[i] = -1
	}
	edges := sc.edges
	for _, p := range pairs {
		rd := int32(p.ord >> 33)
		d := ranked[rd]
		for k := p.head; k >= 0; k = insts[3*k+2] {
			i1, i2 := insts[3*k], insts[3*k+1]
			lo := events[i1].T.Add(-opts.Window)
			seq2 := events[i2].Seq
			tidEvents := byThread.of(tidOf[i2])
			for _, ei := range tidEvents[firstAtOrAfter(events, tidEvents, lo):] {
				if events[ei].Seq >= seq2 {
					break
				}
				s := siteOf[ei]
				if s == d || !inj[s] {
					continue
				}
				if rs := rank[s]; seen[rs] != rd {
					seen[rs] = rd
					edges = append(edges, uint64(rd)<<32|uint64(rs), uint64(rs)<<32|uint64(rd))
				}
			}
		}
	}

	// Sort the edges by (a, b) with two stable counting sorts, by b and then
	// by a (ranks are dense, so both are linear), and drop the duplicates an
	// edge found from both of its sites leaves. Each site's partners are
	// then one run of the list, in rank and hence name order; they are cut
	// from one backing array, capped so an append reallocates instead of
	// overwriting the next site's list.
	sc.edges = edges
	if cap(sc.tmp) < len(edges) {
		sc.tmp = make([]uint64, len(edges))
	}
	tmp := sc.tmp[:len(edges)]
	sortByRank(tmp, edges, len(ranked), 0)
	sortByRank(edges, tmp, len(ranked), 32)
	edges = slices.Compact(edges)
	opts.Metrics.Counter("analyze.interference_edges").Add(int64(len(edges) / 2))
	nodes := 0
	for i, e := range edges {
		if i == 0 || e>>32 != edges[i-1]>>32 {
			nodes++
		}
	}
	backing := make([]trace.SiteID, len(edges))
	plan.Interfere = make(map[trace.SiteID][]trace.SiteID, nodes)
	for i := 0; i < len(edges); {
		a, j := edges[i]>>32, i
		for ; j < len(edges) && edges[j]>>32 == a; j++ {
			backing[j] = rankedNames[edges[j]&(1<<32-1)]
		}
		plan.Interfere[rankedNames[a]] = backing[i:j:j]
		i = j
	}
	return plan
}

// sortByRank stably counting-sorts src into dst by the 32-bit rank at bit
// offset shift of each packed edge; ranks are below n.
func sortByRank(dst, src []uint64, n int, shift uint) {
	next := make([]int32, n+1)
	for _, e := range src {
		next[e>>shift&(1<<32-1)+1]++
	}
	for k := 1; k <= n; k++ {
		next[k] += next[k-1]
	}
	for _, e := range src {
		k := e >> shift & (1<<32 - 1)
		dst[next[k]] = e
		next[k]++
	}
}

// firstAtOrAfter returns the position in idxs, a time-sorted list of event
// indexes, of the first event at or after t.
func firstAtOrAfter(events []trace.Event, idxs []int32, t sim.Time) int {
	lo, hi := 0, len(idxs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if events[idxs[m]].T < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
