package core

import (
	"fmt"
	"math/bits"

	"repro/internal/linkstate"
)

// BacktrackLevelWise extends the Level-wise scheduler with a bounded
// depth-first search: when the combined availability vector at level h is
// empty, instead of denying the request it backtracks to level h-1,
// releases that level's channels, and resumes with the next available
// port there. The paper's scheduler is the Backtracks == 0 special case
// (first-fit, deny at the first dead end); each extra backtrack buys one
// more chance, closing part of the gap to the optimal rearrangeable
// scheduler at a bounded cost that hardware could still pipeline
// (extension E14).
type BacktrackLevelWise struct {
	// Backtracks bounds how many times one request may step back a level
	// after a dead end (0 = plain first-fit Level-wise).
	Backtracks int
}

// Name identifies the scheduler.
func (s *BacktrackLevelWise) Name() string {
	return fmt.Sprintf("level-wise/backtrack-%d", s.Backtracks)
}

// Schedule routes the batch request-major, mutating st. Failed requests
// hold nothing (the search unwinds its allocations).
func (s *BacktrackLevelWise) Schedule(st *linkstate.State, reqs []Request) *Result {
	tree := st.Tree()
	outs := NewOutcomes(tree, reqs)
	var ops Counters
	for i := range outs {
		o := &outs[i]
		if o.H == 0 {
			o.Granted = true
			continue
		}
		s.search(st, o, &ops)
	}
	return finish(s.Name(), outs, ops)
}

// search runs the bounded DFS for one request.
func (s *BacktrackLevelWise) search(st *linkstate.State, o *Outcome, ops *Counters) {
	tree := st.Tree()
	// The cursor tracks the switch pair entering the current level; a
	// backtrack rewinds it by replaying the surviving port prefix.
	// nextPort remembers where each level's port scan resumes.
	var cur RouteCursor
	cur.Start(tree, o.Src, o.Dst)
	nextPort := make([]int, o.H)
	backs := 0
	deny := func(failAt int) {
		ReleaseRoute(st, o.Src, o.Dst, o.Ports, ops)
		o.Ports = o.Ports[:0]
		o.FailLevel = failAt
	}
	for {
		h := cur.Level()
		if h == o.H {
			o.Granted = true
			return
		}
		// The ports from nextPort[h] up (a shift by 64 clears the word).
		avail := st.AvailBothWord(h, cur.Sigma(), cur.Delta()) >> uint(nextPort[h]) << uint(nextPort[h])
		ops.VectorReads += 2
		ops.VectorANDs++
		ops.Steps++
		if avail != 0 {
			found := bits.TrailingZeros64(avail)
			ops.PortPicks++
			mustAllocate(st, linkstate.Up, h, cur.Sigma(), found)
			mustAllocate(st, linkstate.Down, h, cur.Delta(), found)
			ops.Allocs += 2
			o.Ports = append(o.Ports, found)
			nextPort[h] = found + 1
			cur.Advance(found)
			if h+1 < o.H {
				nextPort[h+1] = 0
			}
			continue
		}
		// Dead end at level h.
		if h == 0 || backs >= s.Backtracks {
			deny(h)
			return
		}
		backs++
		// Rewind the cursor one level by replaying the port prefix, then
		// release the channels the abandoned step held.
		cur.Start(tree, o.Src, o.Dst)
		cur.Walk(o.Ports[:h-1], nil)
		mustRelease(st, linkstate.Up, h-1, cur.Sigma(), o.Ports[h-1])
		mustRelease(st, linkstate.Down, h-1, cur.Delta(), o.Ports[h-1])
		ops.Releases += 2
		o.Ports = o.Ports[:h-1]
	}
}
