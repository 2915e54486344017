package core

import (
	"bytes"
	"errors"
	"sort"
	"testing"
	"testing/quick"

	"waffle/internal/trace"
)

// planBytes renders a plan to its canonical JSON encoding, the byte-level
// identity the streaming analyzer and the golden plans are held to.
func planBytes(t *testing.T, plan *Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatalf("encode plan: %v", err)
	}
	return buf.Bytes()
}

// streamOf serializes a trace to the WFTS wire format for AnalyzeStream.
func streamOf(t *testing.T, tr *trace.Trace) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err != nil {
		t.Fatalf("write stream: %v", err)
	}
	return bytes.NewReader(buf.Bytes())
}

// Property: the streaming analyzer is bit-identical to Analyze after a
// WFTS round trip of the same random traces.
func TestAnalyzeStreamMatchesSequentialProperty(t *testing.T) {
	err := quick.Check(func(rawSeed uint32, rawN uint8) bool {
		tr := genTrace(int64(rawSeed), 10+int(rawN)%120)
		want := planBytes(t, Analyze(tr, Options{}))
		plan, aerr := AnalyzeStream(streamOf(t, tr), Options{})
		if aerr != nil {
			t.Logf("stream analyze: %v", aerr)
			return false
		}
		return bytes.Equal(planBytes(t, plan), want)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// Pass 1's inner loop breaks as soon as a partner is a full window ahead —
// which is only sound because the per-object event lists inherit the
// trace's time order. This test documents the dependency: on an
// out-of-order trace the early break silently drops a genuine near miss,
// and CheckTimeSorted is the guard callers of externally loaded traces
// must use.
func TestAnalyzeEarlyBreakRequiresTimeSortedTrace(t *testing.T) {
	unsorted := mkTrace(
		ev(0, 0, 1, "ctor", 1, trace.KindInit),
		ev(1, 200, 2, "far", 1, trace.KindUse), // a full window ahead: breaks the scan
		ev(2, 50, 2, "use", 1, trace.KindUse),  // in-window partner hidden behind it
	)
	if err := CheckTimeSorted(unsorted); !errors.Is(err, ErrUnsortedStream) {
		t.Fatalf("CheckTimeSorted = %v, want ErrUnsortedStream", err)
	}
	if plan := Analyze(unsorted, Options{}); len(plan.Pairs) != 0 {
		t.Fatalf("unsorted trace produced %d pairs; the early break was expected to drop them", len(plan.Pairs))
	}

	sorted := mkTrace(unsorted.Events...)
	sort.Slice(sorted.Events, func(i, j int) bool { return sorted.Events[i].T < sorted.Events[j].T })
	for i := range sorted.Events {
		sorted.Events[i].Seq = i
	}
	if err := CheckTimeSorted(sorted); err != nil {
		t.Fatalf("sorted trace: %v", err)
	}
	plan := Analyze(sorted, Options{})
	if len(plan.Pairs) != 1 || plan.Pairs[0].Delay != "ctor" || plan.Pairs[0].Target != "use" {
		t.Fatalf("sorted trace pairs = %+v, want the recovered ctor→use near miss", plan.Pairs)
	}
}

// AnalyzeStream must reject out-of-order streams loudly instead of
// silently dropping pairs the way the materialized early break would.
func TestAnalyzeStreamRejectsUnsorted(t *testing.T) {
	unsorted := mkTrace(
		ev(0, 0, 1, "ctor", 1, trace.KindInit),
		ev(1, 200, 2, "far", 1, trace.KindUse),
		ev(2, 50, 2, "use", 1, trace.KindUse),
	)
	_, err := AnalyzeStream(streamOf(t, unsorted), Options{})
	if !errors.Is(err, ErrUnsortedStream) {
		t.Fatalf("err = %v, want ErrUnsortedStream", err)
	}
}

// The zero-gap candidate survives streaming too: a DelayLen entry with gap
// 0 must appear in the streamed plan.
func TestAnalyzeZeroGapBitIdenticalAcrossAnalyzers(t *testing.T) {
	tr := mkTrace(
		ev(0, 1, 1, "ctor", 1, trace.KindInit),
		ev(1, 1, 2, "use", 1, trace.KindUse),
	)
	want := planBytes(t, Analyze(tr, Options{}))
	plan, err := AnalyzeStream(streamOf(t, tr), Options{})
	if err != nil {
		t.Fatalf("stream analyze: %v", err)
	}
	if got := planBytes(t, plan); !bytes.Equal(got, want) {
		t.Fatalf("streamed zero-gap plan diverged:\n%s\nvs\n%s", got, want)
	}
	if gap, ok := plan.DelayLen["ctor"]; !ok || gap != 0 {
		t.Fatalf("DelayLen[ctor] = %v,%v, want materialized zero gap", gap, ok)
	}
}
