// Benchmarks for the trace analyzer (materialized and streaming) over the
// suite's preparation traces, plus the recorder hot path. Run with
//
//	go test -bench Analyze -benchtime 1x .
package waffle_test

import (
	"bytes"
	"sync"
	"testing"

	"waffle/internal/core"
	"waffle/internal/sim"
	"waffle/internal/trace"
	"waffle/internal/vclock"
)

// suiteTraces caches every seed-1 suite preparation trace for
// BenchmarkAnalyzeSuite, and the largest of them for the other analyzer
// benchmarks and the allocation gate.
var suiteTraces struct {
	all, largest sync.Once
	trs          []*trace.Trace
	big          *trace.Trace
}

func suitePrepTraces(tb testing.TB) []*trace.Trace {
	tb.Helper()
	suiteTraces.all.Do(func() {
		eachSuitePrepTrace(tb, func(tr *trace.Trace) { suiteTraces.trs = append(suiteTraces.trs, tr) })
	})
	return suiteTraces.trs
}

// largestPrepTrace returns the largest seed-1 suite preparation trace
// (NpgSQL/test-018, 1261 events).
func largestPrepTrace(tb testing.TB) *trace.Trace {
	tb.Helper()
	suiteTraces.largest.Do(func() {
		eachSuitePrepTrace(tb, func(tr *trace.Trace) {
			if suiteTraces.big == nil || len(tr.Events) > len(suiteTraces.big.Events) {
				suiteTraces.big = tr
			}
		})
	})
	return suiteTraces.big
}

// reportEventRate publishes analyzer/recorder throughput: events consumed
// per wall-clock second across all iterations.
func reportEventRate(b *testing.B, eventsPerOp int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(eventsPerOp)*float64(b.N)/s, "events/sec")
	}
}

func BenchmarkAnalyzeSequential(b *testing.B) {
	tr := largestPrepTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Analyze(tr, core.Options{})
	}
	b.ReportMetric(float64(len(tr.Events)), "events")
	reportEventRate(b, len(tr.Events))
}

// planSink keeps benchmarked analyses observable to the compiler.
var planSink *core.Plan

// BenchmarkAnalyzeSuite analyzes every suite test's preparation trace
// once per op: the traffic a per-input scan (Tables 5-6) puts through the
// analyzer, 935 traces of ~550 events on average.
func BenchmarkAnalyzeSuite(b *testing.B) {
	trs := suitePrepTraces(b)
	events := 0
	for _, tr := range trs {
		events += len(tr.Events)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trs {
			planSink = core.Analyze(tr, core.Options{})
		}
	}
	b.ReportMetric(float64(len(trs)), "traces")
	reportEventRate(b, events)
}

func BenchmarkAnalyzeStream(b *testing.B) {
	tr := largestPrepTrace(b)
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AnalyzeStream(bytes.NewReader(data), core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	reportEventRate(b, len(tr.Events))
}

// BenchmarkRecorderRecord measures the recording hot path: RecordEvent
// into per-thread chunked shards. allocs/op must report 0 — only one chunk
// allocation per shardChunkEvents appends, which rounds away — and
// events/sec is the recorder throughput number published to
// BENCH_analyze.json. The recorder is swapped out every 2^20 events (off
// the timer) to bound the benchmark's memory footprint at large b.N.
func BenchmarkRecorderRecord(b *testing.B) {
	clk := vclock.New(1)
	rec := trace.NewRecorder("bench", 1)
	ev := trace.Event{TID: 1, Site: "bench.go:1", Obj: 1, Kind: trace.KindUse, Clock: clk}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%(1<<20) == 0 {
			b.StopTimer()
			rec = trace.NewRecorder("bench", 1)
			b.StartTimer()
		}
		ev.T = sim.Time(i)
		rec.RecordEvent(ev)
	}
	reportEventRate(b, 1)
}

// The allocation gate: analyzing the largest suite trace (NpgSQL/test-018,
// 1261 events) allocates at most a third of what the string-keyed analyzer
// it replaced did. That analyzer measured 4197 allocations per call on
// this trace, so the gate is 1399.
func TestAnalyzeLargestSuiteTraceAllocGate(t *testing.T) {
	tr := largestPrepTrace(t)
	const parentAllocs = 4197
	got := testing.AllocsPerRun(20, func() { core.Analyze(tr, core.Options{}) })
	t.Logf("%s: %d events, %.0f allocs per Analyze (gate %d)", tr.Label, len(tr.Events), got, parentAllocs/3)
	if got > parentAllocs/3 {
		t.Fatalf("Analyze allocated %.0f times on %s, gate is %d (a third of %d)", got, tr.Label, parentAllocs/3, parentAllocs)
	}
}
