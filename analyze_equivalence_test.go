// Bit-identity of the streaming analyzer against Analyze over the
// preparation trace of every built-in bug input: the JSON-encoded plans
// are compared byte for byte.
package waffle_test

import (
	"bytes"
	"testing"

	"waffle/internal/apps"
	"waffle/internal/core"
	"waffle/internal/trace"
)

// prepTraceOf performs one preparation run of a test and returns its trace.
func prepTraceOf(tb testing.TB, test *apps.Test, seed int64) *trace.Trace {
	tb.Helper()
	wf := core.NewWaffle(core.Options{})
	wf.SetLabel(test.Name)
	hook := wf.HookForRun(1, nil)
	res := test.Prog.Execute(seed, hook)
	if res.Err != nil {
		tb.Fatalf("%s: preparation run: %v", test.Name, res.Err)
	}
	wf.FinishPreparation(&core.RunReport{Run: 1, End: res.End})
	tr := wf.PrepTrace()
	if tr == nil {
		tb.Fatalf("%s: no preparation trace", test.Name)
	}
	return tr
}

func encodePlan(tb testing.TB, plan *core.Plan) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		tb.Fatalf("encode plan: %v", err)
	}
	return buf.Bytes()
}

func TestStreamingAnalysisBitIdenticalOnAllApps(t *testing.T) {
	for _, test := range apps.AllBugs() {
		tr := prepTraceOf(t, test, 11)
		if !tr.TimeSorted() {
			t.Fatalf("%s: preparation trace not time-sorted", test.Name)
		}
		want := encodePlan(t, core.Analyze(tr, core.Options{}))

		var stream bytes.Buffer
		if err := tr.WriteStream(&stream); err != nil {
			t.Fatalf("%s: write stream: %v", test.Name, err)
		}
		plan, err := core.AnalyzeStream(bytes.NewReader(stream.Bytes()), core.Options{})
		if err != nil {
			t.Fatalf("%s: streaming analysis: %v", test.Name, err)
		}
		if got := encodePlan(t, plan); !bytes.Equal(got, want) {
			t.Errorf("%s: streamed plan diverged from Analyze (%d vs %d bytes)",
				test.Name, len(got), len(want))
		}
	}
}
