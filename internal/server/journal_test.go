package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "j.jsonl")
}

func TestJournalRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	spec := smallSpec(1, 2)
	want := []Record{
		{Type: "job", Job: "job-1", Spec: &spec},
		{Type: "result", Job: "job-1", Index: 0, Result: &ProgramResult{Index: 0, Program: "p0"}},
		{Type: "result", Job: "job-1", Index: 1, Result: &ProgramResult{Index: 1, Program: "p1"}},
		{Type: "state", Job: "job-1", State: StateCompleted},
	}
	var spans []Span
	for _, r := range want {
		sp, err := j.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, sp)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Type != want[i].Type || r.Job != want[i].Job || r.Index != want[i].Index || r.State != want[i].State {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
	if got[1].Result == nil || got[1].Result.Program != "p0" {
		t.Fatal("result payload lost in round trip")
	}
	// Replay reports the span Append reported, and the span reads the
	// record back.
	for i, e := range got {
		if e.Span != spans[i] {
			t.Fatalf("record %d replayed at %+v, appended at %+v", i, e.Span, spans[i])
		}
	}
	if r, err := j2.Read(got[2].Span); err != nil || r.Result == nil || r.Result.Program != "p1" {
		t.Fatalf("Read(%+v) = %+v, %v; want result p1", got[2].Span, r, err)
	}
}

// A torn final line — the signature of a SIGKILL mid-write — is cut away
// and the journal stays usable; fully written records survive.
func TestJournalTornTailTruncated(t *testing.T) {
	path := tmpJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(1, 2)
	if _, err := j.Append(Record{Type: "job", Job: "job-1", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate the torn write: half a record, no trailing newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"type":"result","job":"job-1","ind`)
	f.Close()

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(recs) != 1 || recs[0].Type != "job" {
		t.Fatalf("replayed %+v, want the one intact job record", recs)
	}
	// The journal must append cleanly after the cut, at the cut.
	sp, err := j2.Append(Record{Type: "state", Job: "job-1", State: StateCancelled})
	if err != nil {
		t.Fatal(err)
	}
	if r, err := j2.Read(sp); err != nil || r.State != StateCancelled {
		t.Fatalf("post-truncation record reads back %+v, %v", r, err)
	}
	j2.Close()
	_, recs, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].State != StateCancelled {
		t.Fatalf("post-truncation append lost: %+v", recs)
	}
}

// Corruption before the final newline is an integrity failure, not
// something to silently skip.
func TestJournalMidFileCorruptionErrors(t *testing.T) {
	path := tmpJournal(t)
	if err := os.WriteFile(path, []byte("not json\n{\"type\":\"job\",\"job\":\"job-1\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenJournal(path)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt journal opened: %v", err)
	}
}

// Reads of committed lines run concurrently with appends, for file and
// in-memory journals alike: every span reads back the record written at
// it. Run under -race.
func TestJournalReadWhileAppending(t *testing.T) {
	file, _, err := OpenJournal(tmpJournal(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Journal{file, newMemJournal()} {
		const n = 200
		spans := make(chan Span, n)
		go func() {
			defer close(spans)
			for i := 0; i < n; i++ {
				sp, err := j.Append(Record{Type: "result", Job: "job-1", Index: i, Result: &ProgramResult{Index: i}})
				if err != nil {
					t.Error(err)
					return
				}
				spans <- sp
			}
		}()
		i := 0
		for sp := range spans {
			r, err := j.Read(sp)
			if err != nil {
				t.Fatal(err)
			}
			if r.Result == nil || r.Result.Index != i {
				t.Fatalf("span %+v read back %+v, want result %d", sp, r, i)
			}
			i++
		}
		if i != n {
			t.Fatalf("read %d records, want %d", i, n)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
