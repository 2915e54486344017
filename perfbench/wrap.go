package main

import (
	"waffle/internal/core"
	"waffle/internal/memmodel"
)

// tracedProgram wraps a core.Program, recording one span per Execute call.
// The span name says which hook the run was handed: none (the plain
// baseline), the preparation hook (a recording run) or the injector (a
// detection run). The hook itself is wrapped in a countingHook whose totals
// are attached to the span. A nil hook is passed on as nil, so the plain
// run stays uninstrumented.
type tracedProgram struct {
	core.Program
	op *opTrace
}

// Execute implements core.Program.
func (p *tracedProgram) Execute(seed int64, hook memmodel.Hook) core.ExecResult {
	name := "sim.execute.plain"
	var counted *countingHook
	switch h := hook.(type) {
	case nil:
	case *core.PrepHook:
		name = "sim.execute.prep"
		counted = &countingHook{inner: h, kind: hookPrep}
	case *core.Injector:
		name = "sim.execute.detect"
		counted = &countingHook{inner: h, kind: hookInject}
	default:
		name = "sim.execute.other"
	}
	if counted != nil {
		hook = counted
	}
	sp := p.op.begin(name)
	res := p.Program.Execute(seed, hook)
	p.op.end(sp, counted)
	return res
}

// tracedWaffle wraps the Waffle tool, recording a span per HookForRun call.
// Before the first detection run it finishes the preparation itself, so
// that trace finishing plus analysis get their own span; HookForRun would
// otherwise make the same call internally. Every other method is the
// embedded tool's.
type tracedWaffle struct {
	*core.Waffle
	op *opTrace
}

// HookForRun implements core.Tool.
func (w *tracedWaffle) HookForRun(run int, prev *core.RunReport) memmodel.Hook {
	name := "inject.new_injector"
	switch {
	case run == 1 && w.Plan() == nil:
		name = "trace.new_recorder"
	case w.Plan() == nil:
		sp := w.op.begin("analyze.prepare")
		w.FinishPreparation(prev)
		w.op.end(sp, nil)
	}
	sp := w.op.begin(name)
	h := w.Waffle.HookForRun(run, prev)
	w.op.end(sp, nil)
	return h
}
