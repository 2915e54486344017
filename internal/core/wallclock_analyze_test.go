package core

import (
	"bytes"
	"testing"
	"time"

	"waffle/internal/sim"
	"waffle/internal/trace"
)

// shiftTrace returns a copy of tr with every timestamp offset by base —
// turning virtual-scale ticks into the absolute wall-clock-nanosecond
// magnitudes a live runtime could stamp.
func shiftTrace(tr *trace.Trace, base sim.Time) *trace.Trace {
	out := &trace.Trace{Label: tr.Label, Seed: tr.Seed, End: tr.End + base}
	out.Events = append([]trace.Event(nil), tr.Events...)
	for i := range out.Events {
		out.Events[i].T += base
	}
	return out
}

// The analyzer consumes only time differences, so a trace shifted to
// wall-clock magnitude must produce the byte-identical plan — in memory
// and through the WFTS stream path. This pins the live-mode contract:
// nothing in analysis or the codecs truncates, wraps, or rescales large
// int64 timestamps.
func TestAnalyzeWallClockMagnitudeTimestamps(t *testing.T) {
	base := sim.Time(time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC).UnixNano())
	for seed := int64(1); seed <= 5; seed++ {
		tr := genTrace(seed, 100)
		want := planBytes(t, Analyze(tr, Options{}))

		shifted := shiftTrace(tr, base)
		if got := planBytes(t, Analyze(shifted, Options{})); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: wall-clock shift changed the plan:\n%s\nvs\n%s", seed, got, want)
		}
		plan, err := AnalyzeStream(streamOf(t, shifted), Options{})
		if err != nil {
			t.Fatalf("seed %d: AnalyzeStream on shifted trace: %v", seed, err)
		}
		if got := planBytes(t, plan); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: AnalyzeStream of shifted trace diverged:\n%s\nvs\n%s", seed, got, want)
		}
	}
}
