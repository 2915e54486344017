package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"waffle/internal/core"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// TestMain lets a test re-run this binary as the waffle-trace command, so
// exit statuses are observable: with WAFFLE_TRACE_MAIN set, the process
// runs main with the arguments after "--".
func TestMain(m *testing.M) {
	if os.Getenv("WAFFLE_TRACE_MAIN") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"waffle-trace"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCmd runs waffle-trace with args and returns its exit code and output.
func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "WAFFLE_TRACE_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run waffle-trace: %v", err)
	}
	return code, stdout.String(), stderr.String()
}

// writeTrace writes tr in the binary format -analyze reads.
func writeTrace(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prep.trace")
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func ms(v int) sim.Time { return sim.Time(v) * sim.Time(sim.Millisecond) }

// -analyze must refuse an unsorted trace the way -analyze-stream does: the
// analyzer's early break would silently drop the ctor→use near miss that
// the far-future "far" event hides.
func TestAnalyzeRejectsUnsortedTrace(t *testing.T) {
	unsorted := &trace.Trace{Label: "unsorted", Events: []trace.Event{
		{Seq: 0, T: ms(0), TID: 1, Site: "ctor", Obj: 1, Kind: trace.KindInit},
		{Seq: 1, T: ms(200), TID: 2, Site: "far", Obj: 1, Kind: trace.KindUse},
		{Seq: 2, T: ms(50), TID: 2, Site: "use", Obj: 1, Kind: trace.KindUse},
	}}
	code, stdout, stderr := runCmd(t, "-analyze", writeTrace(t, unsorted))
	if code == 0 {
		t.Fatalf("-analyze accepted an unsorted trace; stdout:\n%s", stdout)
	}
	if want := core.ErrUnsortedStream.Error(); !strings.Contains(stderr, want) {
		t.Fatalf("stderr = %q, want it to contain %q", stderr, want)
	}

	sorted := &trace.Trace{Label: "sorted", Events: []trace.Event{
		unsorted.Events[0], unsorted.Events[2], unsorted.Events[1],
	}}
	for i := range sorted.Events {
		sorted.Events[i].Seq = i
	}
	code, stdout, stderr = runCmd(t, "-analyze", writeTrace(t, sorted))
	if code != 0 {
		t.Fatalf("-analyze on a sorted trace exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "{ctor -> use} use-before-init") {
		t.Fatalf("sorted trace plan lacks the ctor -> use pair:\n%s", stdout)
	}
}
