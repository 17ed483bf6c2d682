package core

import (
	"repro/internal/linkstate"
)

// Held circuits live in the link state: nothing is rebuilt between
// batches, granted routes simply stay allocated, and a departing circuit
// returns its channels with ReleaseSurviving (fault-aware) before the next
// ScheduleInto sweeps against whatever is left. The allocated bits ARE the
// held set, which is also what the reuse-cost pick (pickPortReuse) scores
// against.
//
// Departure and ScheduleDeltaInto wrap that loop in one call. They are
// kept only because the benchmark's traced delta-epoch replay
// (bench/layers.go) compiles against them through sched.AsIncremental;
// they go when that replay times ReleaseSurviving followed by
// ScheduleInto instead.

// Departure names one held route leaving the fabric in a delta epoch:
// the endpoints it connected and the upward port choices it held (one
// per level below the common ancestor; empty when the endpoints shared a
// level-0 switch and the circuit consumed no channels). The Ports slice
// is owned by the caller and only read here.
type Departure struct {
	Src, Dst int
	Ports    []int
}

// ReleaseSurviving is the fault-tolerant teardown walk: it replays a
// held route's Theorem 1/2 climb and releases every channel that is
// still in service, skipping channels the fault mask has taken down —
// those are masked out of availability and must not be resurrected by a
// departure racing a fault. On a healthy fabric it releases the whole
// path, exactly like ReleaseRoute. ops may be nil; only survivors count
// toward ops.Releases. Releasing a free surviving channel is an
// invariant violation and panics, as in ReleaseRoute.
func ReleaseSurviving(st *linkstate.State, src, dst int, ports []int, ops *Counters) {
	var c RouteCursor
	c.Start(st.Tree(), src, dst)
	for _, p := range ports {
		h, sigma, delta := c.Level(), c.Sigma(), c.Delta()
		if !st.Failed(linkstate.Up, h, sigma, p) {
			mustRelease(st, linkstate.Up, h, sigma, p)
			if ops != nil {
				ops.Releases++
			}
		}
		if !st.Failed(linkstate.Down, h, delta, p) {
			mustRelease(st, linkstate.Down, h, delta, p)
			if ops != nil {
				ops.Releases++
			}
		}
		c.Advance(p)
	}
}

// ScheduleDeltaInto tears down the departures' routes with
// ReleaseSurviving, then sweeps the arrivals with ScheduleInto; teardown
// releases are added to Ops.Releases. With nil departures it is
// ScheduleInto verbatim. Like ScheduleInto, the Result aliases sc and the
// call allocates nothing once sc is warm. Kept only for the benchmark's
// delta-epoch replay (see above); new callers use the two calls.
func (s *LevelWise) ScheduleDeltaInto(st *linkstate.State, arrivals []Request, departures []Departure, sc *Scratch) *Result {
	var ops Counters
	for i := range departures {
		d := &departures[i]
		ReleaseSurviving(st, d.Src, d.Dst, d.Ports, &ops)
	}
	res := s.ScheduleInto(st, arrivals, sc)
	res.Ops.Releases += ops.Releases
	return res
}
