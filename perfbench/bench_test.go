package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root names
// exactly the workloads and metrics this program emits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program has %v", got, want)
		}
	}
	check := func(kind string, declared []named, emitted []metricName) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program emits %d", kind, len(declared), len(emitted))
			return
		}
		for i, m := range emitted {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program emits %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestWorkloadsSmall runs every workload at a handful of operations, untraced
// and traced, and checks that every oracle check passes and every metric is
// emitted.
func TestWorkloadsSmall(t *testing.T) {
	ops := map[string]int{"paper-bugs": 36, "suite-scan": 120, "campaign": 8, "live-service": 300}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 60, trace: traced, ops: ops[name], out: t.TempDir()}
			res, err := runBench(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: oracle breaches: %v", name, traced, res.Breaches)
			}
			if res.Attempted < ops[name] {
				t.Errorf("%s trace=%v: attempted %d operations, want at least %d", name, traced, res.Attempted, ops[name])
			}
			names := endToEnd
			if traced {
				names = perLayer
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace=%v: %d metrics emitted, want %d", name, traced, len(res.Metrics), len(names))
			}
			for _, m := range names {
				v, ok := res.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m.name)
				case v.Unit != m.unit:
					t.Errorf("%s trace=%v: metric %s in %s, want %s", name, traced, m.name, v.Unit, m.unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, v.Value)
				}
			}
		}
	}
}

// TestSpanSelfTime checks self-time attribution and the nesting check on a
// hand-built operation.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{name: "session.expose", parent: -1, start: 0, end: 100},
		{name: "sim.execute.detect", parent: 0, start: 10, end: 60, hook: hookInject, hookCalls: 4, hookNS: 20},
		{name: "analyze.prepare", parent: 0, start: 60, end: 90},
		{name: "sim.execute.plain", parent: 0, start: 95, end: 110}, // ends after its root
	}
	st := analyzeSpans(spans)
	want := map[string]int64{"session": 100 - 50 - 30 - 15, "sim": 30 + 15, "inject": 20, "analyze": 30}
	for layer, ns := range want {
		if st.selfNS[layer] != ns {
			t.Errorf("self time of %s = %d, want %d", layer, st.selfNS[layer], ns)
		}
	}
	if st.badNest != 1 {
		t.Errorf("badNest = %d, want 1", st.badNest)
	}
	if st.roots != 1 || st.hookN[hookInject] != 4 {
		t.Errorf("roots %d, inject hook calls %d; want 1 and 4", st.roots, st.hookN[hookInject])
	}
}

// TestWindowP99 checks that a stall confined to one window leaves the
// windowed p99 at the clean windows' tail.
func TestWindowP99(t *testing.T) {
	ns := make([]int64, 3000)
	for i := range ns {
		ns[i] = int64(i % 100) // p99 of any 1000 consecutive samples: 98
	}
	for i := 1000; i < 1100; i++ {
		ns[i] = 10_000 // a stall in the second window
	}
	if got := windowP99(ns, 1000); got != 98 {
		t.Errorf("windowed p99 = %v, want 98", got)
	}
	if got := windowP99(ns, 0); got != 10_000 {
		t.Errorf("run-wide p99 = %v, want 10000", got)
	}
	if got := windowP99(ns[:1500], 1000); got != 10_000 {
		t.Errorf("one window: p99 = %v, want the run-wide 10000", got)
	}
}
