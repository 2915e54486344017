package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waffle/internal/engine"
	"waffle/internal/obs"
)

// smallSpec is a quick single-program-scale job for manager tests.
func smallSpec(seed int64, programs int) JobSpec {
	return JobSpec{
		Corpus:     CorpusSpec{Seed: seed, Programs: programs, Size: "small"},
		Engine:     engine.Config{Kind: engine.KindWaffle},
		MaxRuns:    15,
		DisarmRuns: 4,
	}
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, m *Manager, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		if st.State == want {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := m.Status(id)
	t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
	return JobStatus{}
}

// waitCursor polls until the job has committed at least n programs.
func waitCursor(t *testing.T, m *Manager, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		if st.Cursor >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached cursor %d", id, n)
}

// checkResult asserts one committed program against the ground-truth
// oracle's expectations: bug count matches the manifest, no violations.
func checkResult(t *testing.T, pr *ProgramResult, index int, wantSeed int64) {
	t.Helper()
	if pr.Index != index {
		t.Errorf("result %d has index %d", index, pr.Index)
	}
	if pr.Seed != wantSeed {
		t.Errorf("result %d has seed %d, want %d", index, pr.Seed, wantSeed)
	}
	if len(pr.Outcomes) != pr.Bugs {
		t.Errorf("result %d: %d outcomes for %d planted bugs", index, len(pr.Outcomes), pr.Bugs)
	}
	for _, v := range pr.Violations {
		t.Errorf("result %d violation: %s", index, v)
	}
}

// A job sweeps its corpus to completion: contiguous results, oracle
// clean, status aggregates matching the per-program results.
func TestJobRunsToCompletion(t *testing.T) {
	m, err := New(Options{Workers: 2, Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	st, err := m.Submit(smallSpec(300, 4))
	if err != nil {
		t.Fatal(err)
	}
	st = waitState(t, m, st.ID, StateCompleted)
	if st.Cursor != 4 || st.Programs != 4 {
		t.Fatalf("completed status cursor=%d programs=%d", st.Cursor, st.Programs)
	}
	page, err := m.Results(context.Background(), st.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !page.Done || len(page.Results) != 4 {
		t.Fatalf("results done=%v n=%d", page.Done, len(page.Results))
	}
	exposed := 0
	for i, pr := range page.Results {
		checkResult(t, pr, i, 300+int64(i))
		for _, oc := range pr.Outcomes {
			if oc.Runs > 0 {
				exposed++
			}
		}
	}
	if st.Exposed != exposed {
		t.Errorf("status exposed=%d, results say %d", st.Exposed, exposed)
	}
	if exposed == 0 {
		t.Error("waffle exposed nothing across 4 small programs")
	}
	if st.Violations != 0 {
		t.Errorf("violations=%d", st.Violations)
	}
}

// Queued jobs dispatch in priority order, admission order within a
// priority tier.
func TestPriorityOrdersDispatch(t *testing.T) {
	var mu sync.Mutex
	var started []string
	block := make(chan struct{})
	m, err := New(Options{Workers: 1, MaxActive: 1, hook: func(id string, i int) {
		mu.Lock()
		if len(started) == 0 || started[len(started)-1] != id {
			started = append(started, id)
		}
		mu.Unlock()
		if id == "job-1" {
			<-block
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	a, err := m.Submit(smallSpec(310, 1))
	if err != nil {
		t.Fatal(err)
	}
	low, err := m.Submit(smallSpec(311, 1)) // priority 0
	if err != nil {
		t.Fatal(err)
	}
	hi1spec := smallSpec(312, 1)
	hi1spec.Priority = 5
	hi1, err := m.Submit(hi1spec)
	if err != nil {
		t.Fatal(err)
	}
	hi2spec := smallSpec(313, 1)
	hi2spec.Priority = 5
	hi2, err := m.Submit(hi2spec)
	if err != nil {
		t.Fatal(err)
	}
	close(block) // release job a; the queue drains in priority order
	for _, id := range []string{a.ID, low.ID, hi1.ID, hi2.ID} {
		waitState(t, m, id, StateCompleted)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{a.ID, hi1.ID, hi2.ID, low.ID}
	if fmt.Sprint(started) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v", started, want)
	}
}

// Cancelling a running job discards the wave in flight: no further
// programs commit, the state lands cancelled.
func TestCancelRunningJob(t *testing.T) {
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	m, err := New(Options{Workers: 1, MaxActive: 1, hook: func(id string, i int) {
		if i == 1 {
			<-block
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	st, err := m.Submit(smallSpec(320, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitCursor(t, m, st.ID, 1) // program 0 committed, program 1 held
	if err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	release()
	st = waitState(t, m, st.ID, StateCancelled)
	if st.Cursor != 1 {
		t.Fatalf("cancelled job committed %d programs, want 1", st.Cursor)
	}
	// Terminal: a second cancel is rejected, results are final.
	if err := m.Cancel(st.ID); err != ErrTerminal {
		t.Fatalf("re-cancel: %v, want ErrTerminal", err)
	}
	page, err := m.Results(context.Background(), st.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !page.Done || len(page.Results) != 1 {
		t.Fatalf("cancelled results done=%v n=%d", page.Done, len(page.Results))
	}
}

// Cancelling a queued job never runs it.
func TestCancelQueuedJob(t *testing.T) {
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	var mu sync.Mutex
	ran := map[string]bool{}
	m, err := New(Options{Workers: 1, MaxActive: 1, hook: func(id string, i int) {
		mu.Lock()
		ran[id] = true
		mu.Unlock()
		if id == "job-1" {
			<-block
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	a, err := m.Submit(smallSpec(330, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(smallSpec(331, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	bs, _ := m.Status(b.ID)
	if bs.State != StateCancelled {
		t.Fatalf("queued cancel left state %s", bs.State)
	}
	release()
	waitState(t, m, a.ID, StateCompleted)
	mu.Lock()
	defer mu.Unlock()
	if ran[b.ID] {
		t.Fatal("cancelled queued job still ran")
	}
}

// Submissions are validated and drain fences new jobs.
func TestSubmitValidatesAndDrainRejects(t *testing.T) {
	m, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := smallSpec(340, 1)
	bad.Corpus.Size = "jumbo"
	if _, err := m.Submit(bad); err == nil {
		t.Fatal("bad size accepted")
	}
	bad = smallSpec(340, 1)
	bad.Engine.Kind = engine.KindLive
	if _, err := m.Submit(bad); err == nil {
		t.Fatal("live engine accepted for a corpus job")
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(smallSpec(340, 1)); err != ErrDraining {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
}

// Long-poll wakes on commit rather than timing out.
func TestResultsLongPoll(t *testing.T) {
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	m, err := New(Options{Workers: 1, MaxActive: 1, hook: func(id string, i int) { <-block }})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	st, err := m.Submit(smallSpec(350, 1))
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan ResultsPage, 1)
	go func() {
		page, err := m.Results(context.Background(), st.ID, 0, 25*time.Second)
		if err != nil {
			t.Errorf("Results: %v", err)
		}
		got <- page
	}()
	// The poller is parked (no results yet); the commit must wake it.
	time.Sleep(20 * time.Millisecond)
	release()
	select {
	case page := <-got:
		if len(page.Results) != 1 || page.Next != 1 {
			t.Fatalf("long-poll page results=%d next=%d", len(page.Results), page.Next)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("long-poll never woke on commit")
	}
}

// Drain parks a running job resumable, and a new manager over the same
// journal finishes the corpus with every program run exactly once.
func TestDrainThenRestartResumesMidCorpus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	const programs = 5

	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	m1, err := New(Options{Journal: path, Workers: 1, MaxActive: 1, hook: func(id string, i int) {
		if i == 2 {
			<-block
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(smallSpec(360, programs))
	if err != nil {
		t.Fatal(err)
	}
	waitCursor(t, m1, st.ID, 2) // 0 and 1 committed, 2 held in flight
	drained := make(chan error, 1)
	go func() { drained <- m1.Drain(context.Background()) }()
	release() // the held wave finishes and is discarded (ctx cancelled)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if got, _ := m1.Status(st.ID); got.State != StateQueued || got.Cursor != 2 {
		t.Fatalf("drained job state=%s cursor=%d, want queued/2", got.State, got.Cursor)
	}

	// Restart: the job resumes at its cursor and runs only the tail.
	var mu sync.Mutex
	var resumedIdx []int
	m2, err := New(Options{Journal: path, Workers: 1, MaxActive: 1, hook: func(id string, i int) {
		mu.Lock()
		resumedIdx = append(resumedIdx, i)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Drain(context.Background())
	fin := waitState(t, m2, st.ID, StateCompleted)
	if !fin.Resumed {
		t.Error("resumed job not flagged Resumed")
	}
	if fin.Cursor != programs {
		t.Fatalf("resumed job cursor=%d, want %d", fin.Cursor, programs)
	}
	mu.Lock()
	if fmt.Sprint(resumedIdx) != fmt.Sprint([]int{2, 3, 4}) {
		t.Fatalf("resume ran programs %v, want [2 3 4] — rerun or skip detected", resumedIdx)
	}
	mu.Unlock()
	page, err := m2.Results(context.Background(), st.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Results) != programs {
		t.Fatalf("final results %d, want %d", len(page.Results), programs)
	}
	for i, pr := range page.Results {
		checkResult(t, pr, i, 360+int64(i))
	}
}

// A restart with terminal jobs in the journal keeps them queryable and
// does not rerun them.
func TestRestartKeepsTerminalJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	m1, err := New(Options{Journal: path, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(smallSpec(370, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, st.ID, StateCompleted)
	if err := m1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	var ran atomic.Bool
	m2, err := New(Options{Journal: path, Workers: 2, hook: func(string, int) { ran.Store(true) }})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Drain(context.Background())
	got, err := m2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCompleted || got.Cursor != 2 {
		t.Fatalf("replayed terminal job state=%s cursor=%d", got.State, got.Cursor)
	}
	time.Sleep(50 * time.Millisecond)
	if ran.Load() {
		t.Fatal("terminal job was re-dispatched after restart")
	}
}

// The adaptive flag threads a controller through without breaking the
// oracle.
func TestAdaptiveJobCompletesClean(t *testing.T) {
	m, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	spec := smallSpec(380, 2)
	spec.Adaptive = true
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitState(t, m, st.ID, StateCompleted)
	if st.Violations != 0 {
		t.Fatalf("adaptive job recorded %d violations", st.Violations)
	}
}

// A hard kill leaves no Drain behind it — just the journal bytes as of
// an arbitrary instant. Snapshotting the live journal mid-corpus and
// opening a second manager over the copy models exactly that: the job
// must resume at the committed prefix and finish the tail, no program
// rerun or skipped.
func TestHardKillJournalSnapshotResumes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	const programs = 5

	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	m1, err := New(Options{Journal: path, Workers: 1, MaxActive: 1, hook: func(id string, i int) {
		if i == 3 {
			<-block
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(smallSpec(390, programs))
	if err != nil {
		t.Fatal(err)
	}
	waitCursor(t, m1, st.ID, 3) // 0..2 committed, 3 held in flight
	before, err := m1.Results(context.Background(), st.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// "SIGKILL": the journal as it exists this instant, nothing flushed,
	// no terminal records, the in-flight program never committed.
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	killed := filepath.Join(dir, "killed.jsonl")
	if err := os.WriteFile(killed, snap, 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var resumedIdx []int
	m2, err := New(Options{Journal: killed, Workers: 1, MaxActive: 1, hook: func(id string, i int) {
		mu.Lock()
		resumedIdx = append(resumedIdx, i)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Drain(context.Background())
	fin := waitState(t, m2, st.ID, StateCompleted)
	if !fin.Resumed || fin.Cursor != programs {
		t.Fatalf("resumed=%v cursor=%d, want true/%d", fin.Resumed, fin.Cursor, programs)
	}
	mu.Lock()
	if fmt.Sprint(resumedIdx) != fmt.Sprint([]int{3, 4}) {
		t.Fatalf("resume ran %v, want [3 4]", resumedIdx)
	}
	mu.Unlock()
	page, err := m2.Results(context.Background(), st.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, pr := range page.Results {
		if seen[pr.Index] {
			t.Fatalf("index %d committed twice", pr.Index)
		}
		seen[pr.Index] = true
	}
	if len(seen) != programs {
		t.Fatalf("final corpus has %d unique programs, want %d", len(seen), programs)
	}
	// The restarted manager pages back exactly what the killed one had
	// served for the committed prefix.
	if len(before.Results) != 3 {
		t.Fatalf("pre-kill page has %d results, want 3", len(before.Results))
	}
	for i, want := range before.Results {
		if got := page.Results[i]; !reflect.DeepEqual(got, want) {
			t.Errorf("result %d after restart = %+v, before kill = %+v", i, got, want)
		}
	}

	// Let the first manager unwind cleanly.
	release()
	m1.Drain(context.Background())
}

// pageAll collects a job's results a few at a time, as a polling client
// would.
func pageAll(t *testing.T, m *Manager, id string) []*ProgramResult {
	t.Helper()
	var all []*ProgramResult
	for after := 0; ; {
		page, err := m.Results(context.Background(), id, after, 0)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, page.Results...)
		if page.Done {
			return all
		}
		if page.Next == after {
			t.Fatalf("results page at %d made no progress and is not done", after)
		}
		after = page.Next
	}
}

// Without a journal path the manager journals in memory and serves the
// same results, field by field, as a manager journaling to a file.
func TestJournalLessManagerServesResults(t *testing.T) {
	results := func(opts Options) []*ProgramResult {
		m, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Drain(context.Background())
		st, err := m.Submit(smallSpec(410, 3))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, st.ID, StateCompleted)
		return pageAll(t, m, st.ID)
	}
	mem := results(Options{Workers: 1})
	file := results(Options{Workers: 1, Journal: filepath.Join(t.TempDir(), "journal.jsonl")})
	if len(mem) != 3 {
		t.Fatalf("journal-less manager served %d results, want 3", len(mem))
	}
	for i := range mem {
		checkResult(t, mem[i], i, 410+int64(i))
		if !reflect.DeepEqual(mem[i], file[i]) {
			t.Errorf("result %d: in-memory journal %+v, file journal %+v", i, mem[i], file[i])
		}
	}
}

// Results are read back from the journal, which Drain closes: afterwards
// a page that would carry results fails with ErrJournalClosed (HTTP 503),
// while a poll at the cursor and Status still answer.
func TestResultsAfterDrain(t *testing.T) {
	for _, journal := range []string{"", filepath.Join(t.TempDir(), "journal.jsonl")} {
		m, err := New(Options{Workers: 1, Journal: journal})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Submit(smallSpec(420, 2))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, st.ID, StateCompleted)
		if err := m.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Results(context.Background(), st.ID, 0, 0); !errors.Is(err, ErrJournalClosed) {
			t.Errorf("journal %q: Results after Drain = %v, want ErrJournalClosed", journal, err)
		}
		page, err := m.Results(context.Background(), st.ID, 2, 0)
		if err != nil || !page.Done || len(page.Results) != 0 {
			t.Errorf("journal %q: poll at the cursor after Drain = %+v, %v; want a done, empty page", journal, page, err)
		}
		if got, err := m.Status(st.ID); err != nil || got.State != StateCompleted || got.Cursor != 2 {
			t.Errorf("journal %q: Status after Drain = %+v, %v", journal, got, err)
		}
		rec := httptest.NewRecorder()
		m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/results", nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("journal %q: GET results after Drain = %d, want 503", journal, rec.Code)
		}
	}
}

// A long-lived manager keeps at most 64 bytes of heap per committed
// program: the result lives in the journal, not in memory. The gate
// commits 4000 copies of real program results through a file journal
// and measures the live heap before and after. (An in-memory journal
// keeps each result's line by design.)
func TestResultsRetentionGate(t *testing.T) {
	m, err := New(Options{Workers: 1, Journal: filepath.Join(t.TempDir(), "journal.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	st, err := m.Submit(smallSpec(430, 3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateCompleted)
	proto := pageAll(t, m, st.ID)

	const programs = 4000
	const maxBytesPerProgram = 64
	j := &job{id: "retention", notify: make(chan struct{})}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	for i := 0; i < programs; i++ {
		// A copy that shares no memory with its prototype, as each
		// program's own result would.
		pr := *proto[i%len(proto)]
		pr.Index = i
		pr.Program = strings.Clone(pr.Program)
		pr.Size = strings.Clone(pr.Size)
		pr.Outcomes = append([]BugResult(nil), pr.Outcomes...)
		pr.Violations = append([]string(nil), pr.Violations...)
		if err := m.commit(j, &pr); err != nil {
			t.Fatal(err)
		}
	}
	growth := heap() - before
	runtime.KeepAlive(j)
	t.Logf("heap growth %d B over %d programs (%.1f B/program)", growth, programs, float64(growth)/programs)
	if growth > programs*maxBytesPerProgram {
		t.Fatalf("heap grew %.1f B per committed program, want <= %d", float64(growth)/programs, maxBytesPerProgram)
	}
}
