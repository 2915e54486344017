package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// hookKind says which layer a counted hook belongs to.
type hookKind uint8

const (
	hookNone   hookKind = iota
	hookPrep            // core.PrepHook: the trace recorder
	hookInject          // core.Injector: the delay injector
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch. A root span (parent -1) is one benchmark operation.
type span struct {
	name      string
	op        int64
	parent    int32
	lane      int32
	start     int64
	end       int64
	hook      hookKind
	hookCalls int64
	hookNS    int64
}

// tracer keeps spans in memory for the traced run. Spans are appended
// under a mutex: the live workload records from two request workers.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, op int64, parent, lane int32) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, lane: lane, start: start})
	return int32(len(t.spans) - 1)
}

// beginAt opens a span whose start was taken earlier (an open-loop
// request is timed from its due time).
func (t *tracer) beginAt(name string, op int64, parent, lane int32, at time.Time) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, lane: lane, start: int64(at.Sub(t.epoch))})
	return int32(len(t.spans) - 1)
}

// end closes span i, renaming it when name is not empty and attaching the
// counts of the hook the call was handed, if any.
func (t *tracer) end(i int32, name string, h *countingHook) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.end = end
	if name != "" {
		s.name = name
	}
	if h != nil {
		s.hook = h.kind
		s.hookCalls = h.calls.Load()
		s.hookNS = h.ns.Load()
	}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// opTrace is the tracing context of one operation: every span of the
// operation is a child of its root span.
type opTrace struct {
	tr   *tracer
	op   int64
	root int32
	lane int32
}

func (o *opTrace) begin(name string) int32 { return o.tr.begin(name, o.op, o.root, o.lane) }

func (o *opTrace) end(i int32, h *countingHook) { o.tr.end(i, "", h) }

// countingHook wraps a memmodel.Hook, counting its calls and the host time
// they take. The time includes the virtual-time sleep handoff the hook
// triggers. Counters are atomic: a faulting run unwinds its threads'
// deferred calls while the simulator tears the world down.
type countingHook struct {
	inner memmodel.Hook
	kind  hookKind
	calls atomic.Int64
	ns    atomic.Int64
}

// OnAccess implements memmodel.Hook.
func (h *countingHook) OnAccess(t *sim.Thread, site trace.SiteID, obj trace.ObjID, kind trace.Kind, dur sim.Duration) {
	t0 := time.Now()
	defer func() {
		h.ns.Add(int64(time.Since(t0)))
		h.calls.Add(1)
	}()
	h.inner.OnAccess(t, site, obj, kind, dur)
}

// layerOf maps a span name to the layer it times: the text before the
// first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// hookLayer is the layer that owns time spent inside a counted hook.
func hookLayer(k hookKind) string {
	switch k {
	case hookPrep:
		return "trace"
	case hookInject:
		return "inject"
	}
	return ""
}

// spanStats aggregates the recorded spans.
type spanStats struct {
	count    map[string]int     // spans per name
	totalNS  map[string]int64   // duration per name
	selfNS   map[string]int64   // self time per layer
	hookN    map[hookKind]int64 // hook calls per kind
	hookNS   map[hookKind]int64 // hook time per kind
	roots    int                // root spans: operations
	badNest  int                // children that do not fit inside their parent
	spansAll int
}

// analyzeSpans computes per-name totals, per-layer self time (a span's
// duration minus its children's and its hook's time), hook totals, and
// checks that every child lies inside its parent.
func analyzeSpans(spans []span) spanStats {
	st := spanStats{
		count: map[string]int{}, totalNS: map[string]int64{},
		selfNS: map[string]int64{}, hookN: map[hookKind]int64{}, hookNS: map[hookKind]int64{},
		spansAll: len(spans),
	}
	childNS := make([]int64, len(spans))
	for i, s := range spans {
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		if s.start < p.start || s.end > p.end {
			st.badNest++
		}
		childNS[s.parent] += spans[i].end - spans[i].start
	}
	for i, s := range spans {
		d := s.end - s.start
		st.count[s.name]++
		st.totalNS[s.name] += d
		st.selfNS[layerOf(s.name)] += d - childNS[i] - s.hookNS
		if s.hook != hookNone {
			st.hookN[s.hook] += s.hookCalls
			st.hookNS[s.hook] += s.hookNS
			st.selfNS[hookLayer(s.hook)] += s.hookNS
		}
		if s.parent < 0 {
			st.roots++
		}
	}
	return st
}

// meanUS is the mean duration of the spans named name, in microseconds.
func (st spanStats) meanUS(name string) float64 {
	if st.count[name] == 0 {
		return 0
	}
	return float64(st.totalNS[name]) / float64(st.count[name]) / 1e3
}

// maxChromeSpans caps the trace file; the statistics use every span.
const maxChromeSpans = 200_000

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	if len(spans) > maxChromeSpans {
		spans = spans[:maxChromeSpans]
	}
	type args struct {
		Op        int64 `json:"op"`
		Parent    int32 `json:"parent"`
		HookCalls int64 `json:"hook_calls,omitempty"`
		HookNS    int64 `json:"hook_ns,omitempty"`
	}
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int32   `json:"tid"`
		Args args    `json:"args"`
	}
	for i, s := range spans {
		b, err := json.Marshal(event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.lane,
			Args: args{Op: s.op, Parent: s.parent, HookCalls: s.hookCalls, HookNS: s.hookNS},
		})
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteString(",\n")
		}
		w.Write(b)
	}
	fmt.Fprintln(w, "\n]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
