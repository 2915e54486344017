package core

import (
	"bytes"
	"errors"
	"testing"

	"waffle/internal/trace"
)

// Fuzz targets for the analyzer's untrusted inputs: WFTS streams handed to
// AnalyzeStream and plan JSON handed to ReadPlanJSON. Run with
// `go test -fuzz=FuzzAnalyzeStream ./internal/core` for coverage-guided
// exploration; in normal test mode the seed corpus runs.

// fuzzTraces are the unit tests' trace shapes: generated traces with fork
// clocks, a zero-gap pair, and the unsorted trace whose early break drops
// a pair.
func fuzzTraces() []*trace.Trace {
	return []*trace.Trace{
		genTrace(1, 40),
		genTrace(7, 120),
		mkTrace(
			ev(0, 1, 1, "ctor", 1, trace.KindInit),
			ev(1, 1, 2, "use", 1, trace.KindUse),
		),
		mkTrace(
			ev(0, 0, 1, "ctor", 1, trace.KindInit),
			ev(1, 200, 2, "far", 1, trace.KindUse),
			ev(2, 50, 2, "use", 1, trace.KindUse),
		),
	}
}

// fuzzOptions decodes an option set from a fuzzed byte.
func fuzzOptions(flags uint8) Options {
	return Options{TSO: flags&1 != 0, DisableParentChild: flags&2 != 0}
}

// Arbitrary bytes never panic AnalyzeStream. A stream that decodes and is
// time-sorted yields exactly Analyze's plan on the materialized trace; an
// unsorted one is rejected with ErrUnsortedStream; an undecodable one is
// rejected.
func FuzzAnalyzeStream(f *testing.F) {
	for i, tr := range fuzzTraces() {
		var buf bytes.Buffer
		if err := tr.WriteStream(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint8(i))
	}
	f.Add([]byte("WFTS"), uint8(0))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, flags uint8) {
		opts := fuzzOptions(flags)
		plan, err := AnalyzeStream(bytes.NewReader(data), opts)
		tr, rerr := trace.ReadStream(bytes.NewReader(data))
		switch {
		case rerr != nil:
			if err == nil {
				t.Fatalf("AnalyzeStream accepted a stream ReadStream rejects (%v)", rerr)
			}
		case !tr.TimeSorted():
			if !errors.Is(err, ErrUnsortedStream) {
				t.Fatalf("unsorted stream: err = %v, want ErrUnsortedStream", err)
			}
		default:
			if err != nil {
				t.Fatalf("sorted stream rejected: %v", err)
			}
			if got, want := planBytes(t, plan), planBytes(t, Analyze(tr, opts)); !bytes.Equal(got, want) {
				t.Fatalf("streamed plan diverged from Analyze:\n%s\nvs\n%s", got, want)
			}
		}
	})
}

// Arbitrary bytes never panic ReadPlanJSON, and a plan that decodes
// re-encodes stably: encode → decode → encode is a fixed point.
func FuzzReadPlanJSON(f *testing.F) {
	for i, tr := range fuzzTraces() {
		var buf bytes.Buffer
		if err := Analyze(tr, fuzzOptions(uint8(i))).WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"pairs":null,"interfere":{"a":null},"probs":{"a":-0}}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := ReadPlanJSON(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		first := planBytes(t, plan)
		again, err := ReadPlanJSON(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-decode of an encoded plan failed: %v\n%s", err, first)
		}
		if second := planBytes(t, again); !bytes.Equal(first, second) {
			t.Fatalf("plan re-encoding unstable:\n%s\nvs\n%s", first, second)
		}
	})
}
