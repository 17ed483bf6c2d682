// Package sched is the single seam through which every layer of the
// repository names and constructs scheduling engines. The paper's
// evaluation — and each extension the repo adds on top of it — is a
// bake-off between scheduler variants on the same FT(l, m, w) link
// state; sched gives those variants one parseable spec grammar
// ("family,key=value,flag"), one registry of validated factories with
// self-describing metadata, and one Engine interface, so cmd tools, the
// fabric manager, and the experiment harness never grow private string
// switches.
//
// # Spec grammar
//
// A spec is a comma-separated list: the first token picks the engine
// family, the rest are key=value parameters or bare flags, e.g.
//
//	level-wise
//	level-wise,policy=random,order=shuffle,rollback
//	local,policy=random,retries=2
//	backtrack,depth=4
//	stale,window=16
//	optimal
//	parallel,mode=racy,workers=8
//
// Unknown families and parameters fail with an error naming the nearest
// valid alternatives. List enumerates every registered family with its
// parameters, so tools print their engine menus from the registry
// instead of hand-maintained usage text.
package sched

import (
	"repro/internal/core"
	"repro/internal/linkstate"
)

// Engine is the uniform scheduling interface every registry-built engine
// satisfies: batch scheduling with and without a caller-owned Scratch.
type Engine interface {
	// Name identifies the engine in results and reports.
	Name() string
	// Schedule routes the batch, mutating st.
	Schedule(st *linkstate.State, reqs []core.Request) *core.Result
	// ScheduleInto is Schedule with working buffers taken from sc;
	// engines without a zero-allocation path fall back to Schedule.
	ScheduleInto(st *linkstate.State, reqs []core.Request, sc *core.Scratch) *core.Result
	// Unwrap returns the underlying scheduler for callers that need a
	// concrete type (internal/fabric mirrors *core.LevelWise options
	// into its parallel engine; stats inspect *parsched.Engine).
	Unwrap() core.Scheduler
}

// Incremental is the delta-epoch capability core.LevelWise still
// implements: departures torn down with core.ReleaseSurviving, then
// arrivals swept with ScheduleInto. Every caller in this module schedules
// with ScheduleInto; Incremental and AsIncremental are kept only because
// the benchmark's traced delta-epoch replay (bench/layers.go) compiles
// against them, and go when that replay no longer does.
type Incremental interface {
	ScheduleDeltaInto(st *linkstate.State, arrivals []core.Request, departures []core.Departure, sc *core.Scratch) *core.Result
}

// AsIncremental reports whether the engine implements Incremental,
// unwrapping the registry adapter if needed.
func AsIncremental(e Engine) (Incremental, bool) {
	if inc, ok := e.(Incremental); ok {
		return inc, true
	}
	if inc, ok := e.Unwrap().(Incremental); ok {
		return inc, true
	}
	return nil, false
}

// scratchScheduler is the optional fast-path interface concrete
// schedulers may implement (core.LevelWise does).
type scratchScheduler interface {
	ScheduleInto(st *linkstate.State, reqs []core.Request, sc *core.Scratch) *core.Result
}

// engine adapts any core.Scheduler to the Engine interface.
type engine struct {
	core.Scheduler
}

func (e engine) ScheduleInto(st *linkstate.State, reqs []core.Request, sc *core.Scratch) *core.Result {
	if si, ok := e.Scheduler.(scratchScheduler); ok {
		return si.ScheduleInto(st, reqs, sc)
	}
	return e.Scheduler.Schedule(st, reqs)
}

func (e engine) Unwrap() core.Scheduler { return e.Scheduler }

// Wrap adapts a concrete scheduler to the Engine interface, using its
// ScheduleInto fast path when it has one. Constructing through Parse is
// preferred; Wrap covers schedulers built programmatically (tests,
// experiments composing custom Options).
func Wrap(s core.Scheduler) Engine {
	if e, ok := s.(Engine); ok {
		return e
	}
	return engine{s}
}
