package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Config parameterizes a World.
type Config struct {
	// Seed drives all scheduling tie-breaks and duration jitter. Two runs
	// with equal seeds and equal thread programs are identical.
	Seed int64

	// Jitter is the relative spread applied to Work durations, e.g. 0.05
	// scales each duration by a uniform factor in [0.95, 1.05]. Zero means
	// fully deterministic durations.
	Jitter float64

	// MaxTime aborts the run with ErrTimeout once virtual time would pass
	// it. Zero means no limit.
	MaxTime Duration

	// MaxEvents aborts the run with ErrEventLimit after that many scheduler
	// events (a runaway-loop backstop). Zero means a generous default.
	MaxEvents int

	// Cancel, when non-nil, aborts the run with ErrCanceled once the
	// channel is closed. The check happens between scheduler events, so a
	// cancelled world stops at the next event boundary and unwinds its
	// threads cleanly — this is how wall-clock run budgets cut short a
	// detection run that virtual-time limits cannot bound.
	Cancel <-chan struct{}
}

// DefaultMaxEvents bounds scheduler events when Config.MaxEvents is zero.
const DefaultMaxEvents = 20_000_000

// Errors reported by World.Run.
var (
	// ErrTimeout reports that virtual time exceeded Config.MaxTime.
	ErrTimeout = errors.New("sim: virtual time limit exceeded")
	// ErrDeadlock reports that live threads remain but none is runnable.
	ErrDeadlock = errors.New("sim: deadlock: all live threads blocked")
	// ErrEventLimit reports that the scheduler event budget was exhausted.
	ErrEventLimit = errors.New("sim: event limit exceeded")
	// ErrCanceled reports that Config.Cancel fired before the run finished.
	ErrCanceled = errors.New("sim: run canceled")
)

// Fault describes an unhandled failure raised by a thread — the analog of
// the unhandled exception that is Waffle's bug oracle.
type Fault struct {
	Err    error    // what went wrong
	Thread int      // faulting thread id
	Name   string   // faulting thread name
	T      Time     // virtual time of the fault
	Op     string   // the thread's last announced operation label
	Stacks []string // one "name@op" line per live thread, faulting first
}

func (f *Fault) Error() string {
	return fmt.Sprintf("fault at %v in thread %d (%s) during %q: %v", f.T, f.Thread, f.Name, f.Op, f.Err)
}

// World is a deterministic virtual-time scheduler. Create one with NewWorld,
// populate it via Run's root thread, and inspect the outcome afterwards.
// A World must not be reused after Run returns.
type World struct {
	cfg     Config
	rng     *rand.Rand
	now     Time
	nextTID int
	events  int

	queue    eventQueue
	threads  map[int]*Thread
	alive    int
	fault    *Fault
	stopping bool
	syncObs  SyncObserver

	// done carries the run's outcome from the thread that detected it
	// back to Run. parkCh is killAll's handshake: a thread unwinding
	// while stopping is set reports there instead of handing off.
	done   chan error
	parkCh chan struct{}
}

// NewWorld returns a World configured by cfg.
func NewWorld(cfg Config) *World {
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = DefaultMaxEvents
	}
	return &World{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		threads: make(map[int]*Thread),
		done:    make(chan error),
		parkCh:  make(chan struct{}),
	}
}

// Now reports the current virtual time. Safe to call from thread context or
// after Run returns.
func (w *World) Now() Time { return w.now }

// Seed reports the seed the world was created with.
func (w *World) Seed() int64 { return w.cfg.Seed }

// Fault returns the fault that ended the run, or nil.
func (w *World) Fault() *Fault { return w.fault }

// Rand returns a float64 in [0,1) from the world's seeded stream. Must only
// be called from thread context (under the scheduler baton).
func (w *World) Rand() float64 { return w.rng.Float64() }

// Jitter scales d by the configured jitter spread.
func (w *World) Jitter(d Duration) Duration {
	if w.cfg.Jitter <= 0 || d <= 0 {
		return d
	}
	f := 1 + w.cfg.Jitter*(2*w.rng.Float64()-1)
	j := Duration(float64(d) * f)
	if j < 0 {
		j = 0
	}
	return j
}

// Run creates the root thread executing main and drives the world until all
// threads finish, a thread faults, the world deadlocks, or a limit trips.
// It returns nil on clean completion; a *Fault satisfies errors.As.
//
// Run itself only starts the first thread: from then on the baton passes
// directly between thread goroutines. A thread that parks picks the next
// event itself (step) and resumes that thread; whichever thread detects
// the end of the run reports the outcome to Run on w.done.
func (w *World) Run(main func(*Thread)) error {
	if w.nextTID != 0 {
		return errors.New("sim: World.Run called twice")
	}
	root := w.newThread(nil, "main", main)
	w.schedule(root, 0)

	next, err := w.step()
	if next != nil {
		w.handoff(next)
		err = <-w.done
	}
	w.killAll()
	return err
}

// step pops the next runnable event and returns its thread, advancing
// virtual time to its wake. When the run is over it returns a nil thread
// and the run's outcome (nil on clean completion). Every termination
// check happens here, between two scheduler events.
func (w *World) step() (*Thread, error) {
	for {
		if w.fault != nil {
			return nil, w.fault
		}
		if w.events >= w.cfg.MaxEvents {
			return nil, ErrEventLimit
		}
		if w.canceled() {
			return nil, ErrCanceled
		}
		if len(w.queue.items) == 0 {
			if w.alive > 0 {
				return nil, ErrDeadlock
			}
			return nil, nil
		}
		it := w.queue.pop()
		if it.t.state == stateDone || it.gen != it.t.wakeGen {
			// Stale entry: the thread finished, or was rescheduled after
			// this entry was pushed (timed waits push a deadline wake that
			// an early signal supersedes).
			continue
		}
		w.events++
		if it.wake > w.now {
			w.now = it.wake
		}
		if w.cfg.MaxTime > 0 && w.now > Time(w.cfg.MaxTime) {
			return nil, ErrTimeout
		}
		return it.t, nil
	}
}

// passBaton gives up the baton of the calling thread, which has either parked
// or finished: it steps to the next event and resumes that thread, or
// reports the run's outcome to Run. It returns true when the next event is
// self, which then simply keeps running — no goroutine switch.
func (w *World) passBaton(self *Thread) bool {
	next, err := w.step()
	switch {
	case next == nil:
		w.done <- err
	case next == self:
		next.state = stateRunning
		return true
	default:
		w.handoff(next)
	}
	return false
}

// handoff passes the baton to t.
func (w *World) handoff(t *Thread) {
	t.state = stateRunning
	t.resume <- resumeMsg{}
}

// canceled reports whether Config.Cancel has fired.
func (w *World) canceled() bool {
	if w.cfg.Cancel == nil {
		return false
	}
	select {
	case <-w.cfg.Cancel:
		return true
	default:
		return false
	}
}

// killAll unwinds every live thread so Run leaks no goroutines. Each
// kill is a handshake: the thread unwinds and reports on parkCh. A thread
// that parks again while unwinding (a deferred Sleep) is killed again, and
// threads spawned during unwinding are reached too, since ids only grow.
func (w *World) killAll() {
	w.stopping = true
	for id := 1; id <= w.nextTID; id++ {
		t := w.threads[id]
		for t != nil && t.state != stateDone {
			t.state = stateRunning
			t.resume <- resumeMsg{kill: true}
			<-w.parkCh
		}
	}
}

// schedule makes t runnable at wake (clamped to now). Rescheduling a
// thread invalidates any earlier pending entry for it: only the newest
// wake counts (timed waits rely on this to let a signal supersede the
// deadline wake).
func (w *World) schedule(t *Thread, wake Time) {
	if wake < w.now {
		wake = w.now
	}
	t.state = stateRunnable
	t.wakeGen++
	w.queue.push(eventItem{wake: wake, prio: w.rng.Uint64(), seq: w.queue.nextSeq(), gen: t.wakeGen, t: t})
}

func (w *World) newThread(parent *Thread, name string, fn func(*Thread)) *Thread {
	w.nextTID++
	t := &Thread{
		w:      w,
		id:     w.nextTID,
		name:   name,
		resume: make(chan resumeMsg),
		tls:    make(map[TLSKey]any),
	}
	if parent != nil {
		t.parent = parent.id
		for k, v := range parent.tls {
			if f, ok := v.(TLSForker); ok {
				t.tls[k] = f.ForkTLS(parent, t)
			} else {
				t.tls[k] = v
			}
		}
	}
	w.threads[t.id] = t
	w.alive++
	go t.run(fn)
	return t
}

// stacks renders one line per live thread, the faulting thread first.
func (w *World) stacks(first *Thread) []string {
	var out []string
	add := func(t *Thread) {
		out = append(out, fmt.Sprintf("thread %d (%s) @ %s", t.id, t.name, t.Op()))
	}
	add(first)
	ids := make([]int, 0, len(w.threads))
	for id := range w.threads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		t := w.threads[id]
		if t != first && t.state != stateDone {
			add(t)
		}
	}
	return out
}

// Threads reports a snapshot of all threads ever created, ordered by id.
// Intended for post-run inspection and reports.
func (w *World) Threads() []ThreadInfo {
	ids := make([]int, 0, len(w.threads))
	for id := range w.threads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]ThreadInfo, 0, len(ids))
	for _, id := range ids {
		t := w.threads[id]
		out = append(out, ThreadInfo{ID: t.id, Parent: t.parent, Name: t.name, Done: t.state == stateDone, LastOp: t.Op()})
	}
	return out
}

// ThreadInfo is a read-only snapshot of one thread's identity and progress.
type ThreadInfo struct {
	ID     int
	Parent int
	Name   string
	Done   bool
	LastOp string
}

// eventItem orders runnable threads by (wake time, seeded priority, seq).
type eventItem struct {
	wake Time
	prio uint64
	seq  uint64
	gen  uint64
	t    *Thread
}

// eventQueue is a binary min-heap of eventItems held by value, so pushing
// an event allocates nothing once the backing array has grown. The order
// on (wake, prio, seq) is total — seq is unique — so the pop sequence is
// fixed by the pushes alone, independent of the heap's internal layout.
type eventQueue struct {
	items []eventItem
	seq   uint64
}

func (q *eventQueue) nextSeq() uint64 { q.seq++; return q.seq }

func (a *eventItem) less(b *eventItem) bool {
	if a.wake != b.wake {
		return a.wake < b.wake
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(it eventItem) {
	q.items = append(q.items, it)
	h := q.items
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].less(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the least item; the queue must be non-empty.
func (q *eventQueue) pop() eventItem {
	h := q.items
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = eventItem{}
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(&h[c]) {
			c = r
		}
		if !h[c].less(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	q.items = h
	return top
}
