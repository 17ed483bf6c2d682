package core

import "repro/internal/topology"

// Scratch holds every buffer the Level-wise scheduler needs to route one
// batch: the outcome records, the ports arena, the processing order and
// the sweep's worklist of 16-byte SweepPos records. A caller that retains
// a Scratch across batches (internal/fabric keeps one per manager) makes
// LevelWise.ScheduleInto allocation-free per request: every buffer is
// reused once it has grown to the workload's high-water mark.
//
// The arena is fixed-stride: request i's ports live at arena[i*L+h] for
// the tree's L link levels, so Outcome i's Ports is a sub-slice of that
// row and no pass over the batch is needed to lay the arena out. Each
// Outcome is written exactly once, whole, at its verdict; until the sweep
// reaches a request's verdict, its record holds whatever the previous
// batch left there.
//
// The level pipeline (pipeline.go) runs out of the same buffers: its
// handoff records, one SweepPos per request, fill work, and the Scratch
// holds its job header, so a pipelined batch needs no extra buffer and
// allocates nothing either. A Scratch is still one caller's at a time;
// the helper touches it only while that caller waits in ScheduleInto.
//
// The Result returned by ScheduleInto — including every Outcome.Ports
// sub-slice — aliases the Scratch and is invalidated by the next
// ScheduleInto call with the same Scratch; callers that keep grants
// beyond the batch must copy the ports out first. A denied outcome's
// Ports hold the ports it still occupies below FailLevel: none under
// Rollback, the first FailLevel picks otherwise. A Scratch is not safe
// for concurrent use; it may move between schedulers (the cached name
// follows the scheduler that last used it).
type Scratch struct {
	res      Result
	outcomes []Outcome
	work     []SweepPos
	order    []int
	arena    []int      // backing store for every outcome's Ports
	owner    *LevelWise // whose Name() name caches
	name     string
	pipe     pipeJob // the level pipeline's hand-off, over work
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// nameFor returns s.Name(), derived once per owner rather than once per
// batch (Name concatenates).
func (sc *Scratch) nameFor(s *LevelWise) string {
	if sc.owner != s {
		sc.owner, sc.name = s, s.Name()
	}
	return sc.name
}

// prepWords returns the sweep's buffers for reqs: the outcome records and
// the fixed-stride ports arena, neither initialized, and an empty worklist
// with room for every request.
func (sc *Scratch) prepWords(tree *topology.Tree, reqs []Request) (outs []Outcome, arena []int, work []SweepPos) {
	n := len(reqs)
	if cap(sc.outcomes) < n {
		sc.outcomes = make([]Outcome, n)
	}
	sc.outcomes = sc.outcomes[:n]
	if cells := n * tree.LinkLevels(); cap(sc.arena) < cells {
		sc.arena = make([]int, cells)
	}
	if cap(sc.work) < n {
		sc.work = make([]SweepPos, n)
	}
	return sc.outcomes, sc.arena, sc.work[:0]
}

// prepOrder returns the order buffer sized for n requests.
func (sc *Scratch) prepOrder(n int) []int {
	if cap(sc.order) < n {
		sc.order = make([]int, n)
	}
	sc.order = sc.order[:n]
	return sc.order
}
