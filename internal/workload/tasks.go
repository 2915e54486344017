package workload

import (
	"fmt"

	"waffle/internal/memmodel"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// TaskSpec describes a synthetic test whose concurrency comes from a task
// pool rather than dedicated threads — the .NET task-oriented style the
// paper's §4.1 note covers. Object lifecycles flow through async-local
// contexts: inits performed before a task is submitted are causally
// ordered with the task's accesses (and pruned by Waffle), while accesses
// from sibling tasks race.
type TaskSpec struct {
	// Prefix namespaces the static site labels.
	Prefix string
	// Workers is the pool size.
	Workers int
	// PreSubmitObjs are initialized by the root before any submission:
	// every task use is fork-ordered through the async-local context.
	PreSubmitObjs int
	// SharedObjs are initialized inside one task and guard-used by
	// sibling tasks — near-miss material across tasks.
	SharedObjs int
	// UsesPerObj is the number of guarded uses per shared object.
	UsesPerObj int
	// Spacing is the think time inside tasks.
	Spacing sim.Duration
}

func (s TaskSpec) withDefaults() TaskSpec {
	if s.Workers <= 0 {
		s.Workers = 2
	}
	if s.UsesPerObj <= 0 {
		s.UsesPerObj = 1
	}
	if s.Spacing <= 0 {
		s.Spacing = 500 * sim.Microsecond
	}
	return s
}

// Body materializes the spec. Per shared object the root submits one init
// task, UsesPerObj guarded-use tasks, and — after waiting for all of them —
// one dispose task. The waits order dispose after the uses in real time
// (so the generated test is fault-free even under delays: uses are
// guarded, disposes follow completed uses), but fork clocks do not track
// waits, so the use→dispose near misses stay in the candidate set exactly
// like thread-based false candidates do.
func (s TaskSpec) Body() func(*sim.Thread, *memmodel.Heap) {
	s = s.withDefaults()
	return func(root *sim.Thread, h *memmodel.Heap) {
		ls := s.labels()
		pool := sim.NewTaskPool(root, s.Workers, s.Prefix)

		preSubmit := make([]*memmodel.Ref, s.PreSubmitObjs)
		for i := range preSubmit {
			preSubmit[i] = h.NewRef(ls.pre[i].name)
			preSubmit[i].Init(root, ls.pre[i].init)
		}

		for oi := 0; oi < s.SharedObjs; oi++ {
			ol := &ls.objs[oi]
			obj := h.NewRef(ol.name)
			initTask := pool.Submit(root, "init", func(t *sim.Thread) {
				t.Work(s.Spacing)
				obj.Init(t, ol.init)
			})
			var useTasks []*sim.TaskHandle
			for u := 0; u < s.UsesPerObj; u++ {
				u := u
				useTasks = append(useTasks, pool.Submit(root, "use", func(t *sim.Thread) {
					t.Work(s.Spacing)
					obj.UseIfLive(t, ol.use[u])
					for pi := range preSubmit {
						preSubmit[pi].Use(t, ls.pre[pi].use[0])
					}
				}))
			}
			initTask.Wait(root)
			for _, ut := range useTasks {
				ut.Wait(root)
			}
			dispose := pool.Submit(root, "dispose", func(t *sim.Thread) {
				t.Work(s.Spacing)
				obj.Dispose(t, ol.disp)
			})
			dispose.Wait(root)
		}

		for i := range preSubmit {
			preSubmit[i].Dispose(root, ls.pre[i].disp)
		}
		pool.Shutdown(root)
		pool.Join(root)
	}
}

// taskLabels holds a TaskSpec body's reference names and site labels.
type taskLabels struct {
	pre  []objLabels // use[0] is the one use site
	objs []objLabels // use indexed by use task
}

// labels builds the label tables of a defaulted spec.
func (s TaskSpec) labels() *taskLabels {
	site := func(parts ...any) trace.SiteID { return label(s.Prefix, parts...) }
	ls := &taskLabels{}
	ls.pre = make([]objLabels, s.PreSubmitObjs)
	for i := range ls.pre {
		ls.pre[i] = objLabels{
			name: fmt.Sprintf("pre%d", i),
			init: site("pre", i, "init"),
			disp: site("pre", i, "disp"),
			use:  []trace.SiteID{site("pre", i, "use")},
		}
	}
	ls.objs = make([]objLabels, s.SharedObjs)
	for oi := range ls.objs {
		ls.objs[oi] = objLabels{
			name: fmt.Sprintf("obj%d", oi),
			init: site("obj", oi, "init"),
			disp: site("obj", oi, "disp"),
			use:  make([]trace.SiteID, s.UsesPerObj),
		}
		for u := range ls.objs[oi].use {
			ls.objs[oi].use[u] = site("obj", oi, "use", u)
		}
	}
	return ls
}
