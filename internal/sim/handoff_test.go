package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines waits until the goroutine count is back at base. Thread
// goroutines still return after their last channel operation, so the
// count settles shortly after Run returns rather than at once.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Run, want %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// sleeper loops on Sleep forever: a thread that is always runnable.
func sleeper(t *Thread) {
	t.SetOp("sleeping")
	for {
		t.Sleep(Millisecond)
	}
}

// waiter blocks forever on an event nobody sets.
func waiter(t *Thread) {
	t.SetOp("waiting")
	var ev Event
	ev.Wait(t)
}

// Every way a run can end, with the handoff between thread goroutines:
// the returned error, the fault (if any) and no leaked thread goroutine.
func TestRunEndingsUnwindEveryThread(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		cfg  Config
		// cancel, when set, is closed by the body mid-run.
		cancel bool
		body   func(main *Thread, cancel chan struct{})
		err    error  // errors.Is target; nil with fault set means a *Fault
		fault  *Fault // expected fault fields (Err compared by message)
	}{
		{
			name: "throw with runnable and blocked threads",
			body: func(main *Thread, _ chan struct{}) {
				main.Spawn("runner", sleeper)
				main.Spawn("blocked", waiter)
				main.SetOp("detonating")
				main.Sleep(1500 * Microsecond)
				main.Throw(boom)
			},
			fault: &Fault{Err: boom, Thread: 1, Name: "main", T: 1500, Op: "detonating", Stacks: []string{
				"thread 1 (main) @ detonating",
				"thread 2 (runner) @ sleeping",
				"thread 3 (blocked) @ waiting",
			}},
		},
		{
			name: "user panic in a child",
			body: func(main *Thread, _ chan struct{}) {
				main.Spawn("blocked", waiter)
				main.Spawn("panicker", func(t *Thread) {
					t.SetOp("exploding")
					t.Sleep(2 * Millisecond)
					panic("kaboom")
				})
				sleeper(main)
			},
			fault: &Fault{Err: errors.New("panic: kaboom"), Thread: 3, Name: "panicker", T: 2000, Op: "exploding", Stacks: []string{
				"thread 3 (panicker) @ exploding",
				"thread 1 (main) @ sleeping",
				"thread 2 (blocked) @ waiting",
			}},
		},
		{
			name: "deadlock",
			body: func(main *Thread, _ chan struct{}) {
				var m1, m2 Mutex
				a := main.Spawn("a", func(t *Thread) { m1.Lock(t); t.Sleep(Millisecond); m2.Lock(t) })
				b := main.Spawn("b", func(t *Thread) { m2.Lock(t); t.Sleep(Millisecond); m1.Lock(t) })
				main.Join(a)
				main.Join(b)
			},
			err: ErrDeadlock,
		},
		{
			name: "event limit",
			cfg:  Config{MaxEvents: 500},
			body: func(main *Thread, _ chan struct{}) {
				main.Spawn("blocked", waiter)
				main.Spawn("runner", sleeper)
				for {
					main.Yield()
				}
			},
			err: ErrEventLimit,
		},
		{
			name:   "cancel closed mid-run",
			cancel: true,
			body: func(main *Thread, cancel chan struct{}) {
				main.Spawn("blocked", waiter)
				main.Spawn("runner", sleeper)
				for i := 0; ; i++ {
					main.Sleep(Millisecond)
					if i == 5 {
						close(cancel)
					}
				}
			},
			err: ErrCanceled,
		},
		{
			name: "virtual time limit",
			cfg:  Config{MaxTime: 20 * Millisecond},
			body: func(main *Thread, _ chan struct{}) {
				main.Spawn("blocked", waiter)
				main.Spawn("runner", sleeper)
				sleeper(main)
			},
			err: ErrTimeout,
		},
		{
			name: "deferred sleep in a killed thread",
			body: func(main *Thread, _ chan struct{}) {
				main.Spawn("deferrer", func(t *Thread) {
					defer t.Sleep(Millisecond) // parks again while the world stops
					waiter(t)
				})
				main.Sleep(Millisecond)
				main.Throw(boom)
			},
			fault: &Fault{Err: boom, Thread: 1, Name: "main", T: 1000, Stacks: []string{
				"thread 1 (main) @ ",
				"thread 2 (deferrer) @ waiting",
			}},
		},
		{
			name: "deferred sleep in the faulting thread",
			body: func(main *Thread, _ chan struct{}) {
				main.Spawn("blocked", waiter)
				main.Spawn("runner", sleeper)
				defer main.Sleep(Millisecond) // parks after the fault is set
				main.Sleep(Millisecond)
				main.Throw(boom)
			},
			fault: &Fault{Err: boom, Thread: 1, Name: "main", T: 1000, Stacks: []string{
				"thread 1 (main) @ ",
				"thread 2 (blocked) @ waiting",
				"thread 3 (runner) @ sleeping",
			}},
		},
		{
			name: "spawn while being killed",
			body: func(main *Thread, _ chan struct{}) {
				main.Spawn("spawner", func(t *Thread) {
					defer t.Spawn("late", waiter) // a thread born during unwinding
					waiter(t)
				})
				main.Sleep(Millisecond)
				main.Throw(boom)
			},
			fault: &Fault{Err: boom, Thread: 1, Name: "main", T: 1000, Stacks: []string{
				"thread 1 (main) @ ",
				"thread 2 (spawner) @ waiting",
			}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := c.cfg
			cfg.Seed = 1
			var cancel chan struct{}
			if c.cancel {
				cancel = make(chan struct{})
				cfg.Cancel = cancel
			}
			w := NewWorld(cfg)
			err := w.Run(func(main *Thread) { c.body(main, cancel) })

			if c.fault == nil {
				if !errors.Is(err, c.err) {
					t.Fatalf("Run = %v, want %v", err, c.err)
				}
				if w.Fault() != nil {
					t.Fatalf("Fault() = %v on a fault-free ending", w.Fault())
				}
			} else {
				var f *Fault
				if !errors.As(err, &f) {
					t.Fatalf("Run = %v, want *Fault", err)
				}
				if f != w.Fault() {
					t.Fatal("Run's fault is not World.Fault()")
				}
				want := c.fault
				if f.Err.Error() != want.Err.Error() || f.Thread != want.Thread || f.Name != want.Name || f.T != want.T || f.Op != want.Op {
					t.Fatalf("fault = {%v %d %s %v %q}, want {%v %d %s %v %q}",
						f.Err, f.Thread, f.Name, f.T, f.Op, want.Err, want.Thread, want.Name, want.T, want.Op)
				}
				if len(f.Stacks) != len(want.Stacks) {
					t.Fatalf("stacks = %q, want %q", f.Stacks, want.Stacks)
				}
				for i := range want.Stacks {
					if f.Stacks[i] != want.Stacks[i] {
						t.Fatalf("stacks = %q, want %q", f.Stacks, want.Stacks)
					}
				}
			}
			for _, ti := range w.Threads() {
				if !ti.Done {
					t.Errorf("thread %d (%s) still live after Run", ti.ID, ti.Name)
				}
			}
			waitGoroutines(t, base)
		})
	}
}

// sleepAllocs measures allocations per Sleep of the root thread while
// threads-1 other threads sleep in lockstep, after a warm-up that grows
// the event heap to its steady size.
func sleepAllocs(t *testing.T, threads int) float64 {
	t.Helper()
	var avg float64
	stop := false
	w := NewWorld(Config{Seed: 1})
	err := w.Run(func(main *Thread) {
		for i := 1; i < threads; i++ {
			main.Spawn("peer", func(t *Thread) {
				for !stop {
					t.Sleep(Microsecond)
				}
			})
		}
		for i := 0; i < 100; i++ {
			main.Sleep(Microsecond)
		}
		avg = testing.AllocsPerRun(1000, func() { main.Sleep(Microsecond) })
		stop = true
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return avg
}

// The scheduler hot path allocates nothing per event: values in the heap,
// direct handoff between threads, no per-event closure or channel.
func TestSleepEventZeroAllocs(t *testing.T) {
	for _, threads := range []int{1, 4} {
		if avg := sleepAllocs(t, threads); avg != 0 {
			t.Errorf("%d runnable threads: %.3f allocs per Sleep, want 0", threads, avg)
		}
	}
}

// benchmarkWorldSleep reports ns per scheduler event with the given number
// of threads sleeping in lockstep.
func benchmarkWorldSleep(b *testing.B, threads int) {
	b.ReportAllocs()
	per := b.N/threads + 1
	w := NewWorld(Config{Seed: 1, MaxEvents: threads*per + 2*threads + 1})
	b.ResetTimer()
	err := w.Run(func(main *Thread) {
		for i := 1; i < threads; i++ {
			main.Spawn("peer", func(t *Thread) {
				for j := 0; j < per; j++ {
					t.Sleep(Microsecond)
				}
			})
		}
		for j := 0; j < per; j++ {
			main.Sleep(Microsecond)
		}
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkWorldSleep1(b *testing.B) { benchmarkWorldSleep(b, 1) }
func BenchmarkWorldSleep4(b *testing.B) { benchmarkWorldSleep(b, 4) }
