package core

import (
	"repro/internal/bitvec"
	"repro/internal/topology"
)

// Scratch holds every buffer the Level-wise scheduler needs to route one
// batch: the outcome records, the ports arena, the processing order, one
// availability vector, and the sweep's per-request working set — the word
// path's compacted worklist of 16-byte SweepPos records, or the Vector
// path's cursor states. A caller that retains a Scratch across batches
// (internal/fabric keeps one per manager) makes LevelWise.ScheduleInto
// allocation-free per request: every buffer is reused once it has grown
// to the workload's high-water mark.
//
// The arena is fixed-stride: request i's ports live at arena[i*L+h] for
// the tree's L link levels, so Outcome i's Ports is a sub-slice of that
// row and no pass over the batch is needed to lay the arena out. The word
// path writes each Outcome exactly once, whole, at its verdict; until
// SweepWords returns, the records of requests still in flight hold
// whatever the previous batch left there.
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
	work     []SweepPos // word path
	states   []lwState  // Vector path
	order    []int
	arena    []int          // backing store for every outcome's Ports
	avail    *bitvec.Matrix // one row: the Vector path's availability
	owner    *LevelWise     // whose Name() name caches
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

// prepBatch sizes the outcome records and the fixed-stride ports arena
// for n requests; neither is initialized.
func (sc *Scratch) prepBatch(tree *topology.Tree, n int) (outs []Outcome, arena []int) {
	if cap(sc.outcomes) < n {
		sc.outcomes = make([]Outcome, n)
	}
	sc.outcomes = sc.outcomes[:n]
	if cells := n * tree.LinkLevels(); cap(sc.arena) < cells {
		sc.arena = make([]int, cells)
	}
	return sc.outcomes, sc.arena
}

// prepOutcomes fills the outcome records for reqs, each with a
// zero-length, capacity-H window of its arena row as Ports so that the
// scheduler's appends never allocate.
func (sc *Scratch) prepOutcomes(tree *topology.Tree, reqs []Request) []Outcome {
	outs, arena := sc.prepBatch(tree, len(reqs))
	L := tree.LinkLevels()
	for i, r := range reqs {
		h := tree.AncestorLevel(r.Src, r.Dst)
		outs[i] = Outcome{Request: r, H: h, Ports: arena[i*L : i*L : i*L+h], FailLevel: -1}
	}
	return outs
}

// prepWords returns the word path's buffers for reqs: the outcome records
// and arena of prepBatch, and an empty worklist with room for every
// request.
func (sc *Scratch) prepWords(tree *topology.Tree, reqs []Request) (outs []Outcome, arena []int, work []SweepPos) {
	outs, arena = sc.prepBatch(tree, len(reqs))
	if cap(sc.work) < len(reqs) {
		sc.work = make([]SweepPos, len(reqs))
	}
	return outs, arena, sc.work[:0]
}

// prepStates returns the per-request sweep-state buffer sized for n
// requests.
func (sc *Scratch) prepStates(n int) []lwState {
	if cap(sc.states) < n {
		sc.states = make([]lwState, n)
	}
	sc.states = sc.states[:n]
	return sc.states
}

// prepOrder returns the order buffer sized for n requests.
func (sc *Scratch) prepOrder(n int) []int {
	if cap(sc.order) < n {
		sc.order = make([]int, n)
	}
	sc.order = sc.order[:n]
	return sc.order
}

// prepAvail returns the availability scratch vector for the tree's port
// width, and its words, which the Scorer reads.
func (sc *Scratch) prepAvail(tree *topology.Tree) (bitvec.Vector, []uint64) {
	if sc.avail == nil || sc.avail.Width() != tree.Parents() {
		sc.avail = bitvec.NewMatrix(1, tree.Parents())
	}
	return sc.avail.Row(0), sc.avail.Words()
}

// finishInto assembles the batch Result in the Scratch (reusing its
// Result header) exactly as finish does with a fresh one.
func (sc *Scratch) finishInto(name string, outs []Outcome, ops Counters) *Result {
	sc.res = Result{Scheduler: name, Outcomes: outs, Total: len(outs), Ops: ops}
	for i := range outs {
		if outs[i].Granted {
			sc.res.Granted++
		}
	}
	return &sc.res
}
