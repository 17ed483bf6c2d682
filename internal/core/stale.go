package core

import (
	"fmt"
	"math/bits"

	"repro/internal/linkstate"
)

// StaleLevelWise schedules like LevelWise but reads the destination-side
// Dlink vectors from a periodically refreshed snapshot of the link state,
// modeling a scheduler whose global view lags the network — e.g. one
// whose link-state database is synchronized over a control plane every
// Window requests rather than instantaneously.
//
// Decisions combine the always-fresh local Ulink (a switch knows its own
// ports) with the stale Dlink view; commits run against the live state,
// so a stale decision can collide on the downward channel and fail
// exactly like the conventional local scheduler's blind commitment. The
// spectrum interpolates between the paper's two contenders:
//
//   - Window == 1: the view refreshes before every request — identical
//     grants to the exact Level-wise scheduler (request-major,
//     first-fit).
//   - Window >= the batch size: the view never refreshes past the fresh
//     start — destination information is useless and behavior approaches
//     the greedy local scheduler.
//
// Extension E12 sweeps Window to show how much staleness the global
// advantage tolerates.
type StaleLevelWise struct {
	// Window is the number of requests between view refreshes (>= 1).
	Window int
}

// Name identifies the scheduler in results and reports.
func (s *StaleLevelWise) Name() string {
	return fmt.Sprintf("level-wise/stale-%d", s.Window)
}

// Schedule routes the batch, mutating st. Failed requests release
// everything they claimed (a connection that is not established holds
// nothing — required here because stale decisions fail at commit time).
func (s *StaleLevelWise) Schedule(st *linkstate.State, reqs []Request) *Result {
	if s.Window < 1 {
		panic("core: StaleLevelWise.Window must be >= 1")
	}
	tree := st.Tree()
	outs := NewOutcomes(tree, reqs)
	var ops Counters

	view := linkstate.New(tree)
	processed := 0
	for i := range outs {
		o := &outs[i]
		if processed%s.Window == 0 {
			view.Restore(st.Snapshot())
		}
		processed++
		if o.H == 0 {
			o.Granted = true
			continue
		}
		s.tryOne(st, view, o, &ops)
	}
	return finish(s.Name(), outs, ops)
}

func (s *StaleLevelWise) tryOne(st, view *linkstate.State, o *Outcome, ops *Counters) {
	var cur RouteCursor
	cur.Start(st.Tree(), o.Src, o.Dst)
	fail := func(level int, down bool) {
		o.FailLevel = level
		o.FailDown = down
		ReleaseRoute(st, o.Src, o.Dst, o.Ports, ops)
		o.Ports = o.Ports[:0]
	}
	for h := 0; h < o.H; h++ {
		// Decision: fresh local Ulink AND stale Dlink view.
		uw, _ := st.LevelWords(h)
		_, vdw := view.LevelWords(h)
		ops.VectorReads += 2
		ops.VectorANDs++
		ops.Steps++
		p := -1
		if avail := uw[cur.Sigma()] & vdw[cur.Delta()]; avail != 0 {
			p = bits.TrailingZeros64(avail)
		}
		ops.PortPicks++
		if p < 0 {
			fail(h, false)
			return
		}
		// Commit against reality: the up channel is fresh and must be
		// free; the down channel may have been taken since the last
		// refresh.
		if !st.Available(linkstate.Down, h, cur.Delta(), p) {
			fail(h, true)
			return
		}
		mustAllocate(st, linkstate.Up, h, cur.Sigma(), p)
		mustAllocate(st, linkstate.Down, h, cur.Delta(), p)
		ops.Allocs += 2
		o.Ports = append(o.Ports, p)
		cur.Advance(p)
	}
	o.Granted = true
}
