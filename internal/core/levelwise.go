package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"

	"repro/internal/bitvec"
	"repro/internal/linkstate"
)

// LevelWise is the paper's centralized global scheduler (Section 4,
// Figure 7). At every level h it consults both Ulink(h, σ_h) of the
// source-side switch and Dlink(h, δ_h) of the destination-side mirror
// switch, so an upward port is only taken when the downward channel it
// forces (Theorem 2) is also free.
type LevelWise struct {
	Opts Options
}

// NewLevelWise returns a Level-wise scheduler with the paper's default
// options (first-fit ports, natural order, level-major traversal).
func NewLevelWise() *LevelWise { return &LevelWise{} }

// Name identifies the scheduler in results and reports.
func (s *LevelWise) Name() string {
	n := "level-wise"
	if s.Opts.Traversal == RequestMajor {
		n += "/request-major"
	}
	if s.Opts.Policy != FirstFit {
		n += "/" + s.Opts.Policy.String()
	}
	if s.Opts.Rollback {
		n += "/rollback"
	}
	if s.Opts.ReuseCost > 0 {
		n += fmt.Sprintf("/reuse-cost=%d", s.Opts.ReuseCost)
	}
	return n
}

// request-in-flight bookkeeping for the Vector path's level-major sweep
// (the word path streams SweepPos records instead).
type lwState struct {
	cur   RouteCursor // current (σ_h, δ_h) switch pair
	alive bool        // still schedulable
}

// Schedule routes the batch, mutating st. Requests whose endpoints share a
// level-0 switch (H == 0) are granted without consuming links.
func (s *LevelWise) Schedule(st *linkstate.State, reqs []Request) *Result {
	return s.ScheduleInto(st, reqs, NewScratch())
}

// ScheduleInto is Schedule with every working buffer taken from sc, so a
// caller that reuses one Scratch across batches pays zero allocations per
// request (see BenchmarkLevelWiseAllocs). The returned Result aliases sc
// and is invalidated by sc's next use. A large word-path batch may run on
// the level pipeline (pipeline.go), which returns the same Result as the
// sequential sweep, bit for bit.
func (s *LevelWise) ScheduleInto(st *linkstate.State, reqs []Request, sc *Scratch) *Result {
	return s.scheduleInto(st, reqs, sc, false)
}

// scheduleInto is ScheduleInto with a test seam: inline runs a batch the
// level pipeline takes with both stages on the caller, as if the helper
// were absent, whatever GOMAXPROCS is.
func (s *LevelWise) scheduleInto(st *linkstate.State, reqs []Request, sc *Scratch, inline bool) *Result {
	tree := st.Tree()
	// The default fixed-seed source is only materialized when an option
	// actually consumes randomness; creating it unconditionally would be
	// the hot path's sole per-batch allocation.
	rng := s.Opts.Rand
	if rng == nil && (s.Opts.Policy == RandomFit || s.Opts.Order == ShuffledOrder) {
		rng = rand.New(rand.NewSource(1))
	}
	k := Scorer{Policy: s.Opts.Policy, ReuseCost: s.Opts.ReuseCost, Rand: rng}
	name := sc.nameFor(s)

	// Word fast path: when every availability row is one machine word
	// (w <= 64), the level-major step collapses to one AND and one pick on
	// the word, under every policy. Tracing (which renders the availability
	// as a Vector) and request-major traversal take the Vector form, which
	// makes the same picks through the same Scorer (word_test.go holds the
	// two bit-identical).
	if st.WordRows() && s.Opts.Trace == nil && s.Opts.Traversal == LevelMajor {
		return s.scheduleWords(st, reqs, sc, name, k, inline)
	}

	outs := sc.prepOutcomes(tree, reqs)
	order := orderIndicesInto(sc.prepOrder(len(reqs)), tree, reqs, s.Opts.Order, rng)
	avail, words := sc.prepAvail(tree)
	var ops Counters
	if s.Opts.Traversal == RequestMajor {
		for _, i := range order {
			s.scheduleOne(st, &outs[i], &ops, k, avail, words)
		}
		return sc.finishInto(name, outs, ops)
	}

	// Level-major, Vector form: the paper's pseudo-code. All requests
	// advance through level h before any touches level h+1.
	states := sc.prepStates(len(reqs))
	maxH := 0
	for i := range outs {
		states[i].cur.Start(tree, outs[i].Src, outs[i].Dst)
		states[i].alive = true
		if outs[i].H == 0 {
			outs[i].Granted = true
			states[i].alive = false
		} else if outs[i].H > maxH {
			maxH = outs[i].H
		}
	}
	for h := 0; h < maxH; h++ {
		for _, i := range order {
			o, ls := &outs[i], &states[i]
			if !ls.alive || h >= o.H {
				continue
			}
			st.AvailBothInto(avail, h, ls.cur.Sigma(), ls.cur.Delta())
			ops.VectorReads += 2
			ops.VectorANDs++
			ops.Steps++
			p := k.Pick(st, h, ls.cur.Sigma(), ls.cur.Delta(), words)
			ops.PortPicks++
			if s.Opts.Trace != nil {
				s.Opts.Trace(TraceEvent{Scheduler: name, Src: o.Src, Dst: o.Dst, Level: h,
					Phase: "combined", Sigma: ls.cur.Sigma(), Delta: ls.cur.Delta(), Avail: avail.String(), Port: p})
			}
			if p < 0 {
				ls.alive = false
				o.FailLevel = h
				if s.Opts.Rollback {
					s.rollback(st, o, &ops)
				}
				continue
			}
			mustAllocate(st, linkstate.Up, h, ls.cur.Sigma(), p)
			mustAllocate(st, linkstate.Down, h, ls.cur.Delta(), p)
			ops.Allocs += 2
			o.Ports = append(o.Ports, p)
			ls.cur.Advance(p)
			if len(o.Ports) == o.H {
				o.Granted = true
				ls.alive = false
			}
		}
	}
	return sc.finishInto(name, outs, ops)
}

// SweepPos is one live request of the level-major word sweep: its index
// in the batch, the switch pair (σ_h, δ_h) it occupies at the level being
// swept, and its ancestor level H. 16 bytes, so a level's worklist streams
// four requests to the cache line.
type SweepPos struct {
	I, Sigma, Delta, H int32
}

// set overwrites every field of o, one store per field. Assigning an
// Outcome literal instead builds the 72-byte record on the stack and
// copies it with 16-byte moves, which cannot forward from the 8-byte
// stores that just filled it; that stall measured a third of the sweep.
func (o *Outcome) set(r Request, h int, granted bool, ports []int, failLevel int) {
	o.Request = r
	o.H = h
	o.Granted = granted
	o.Ports = ports
	o.FailLevel = failLevel
	o.FailDown = false
}

// scheduleWords is ScheduleInto's level-major word path. A first-fit batch
// of at least pipelineMin requests on a table-view tree with two or more
// link levels takes the level pipeline (pipeline.go) when GOMAXPROCS is 2
// or more and the helper is free and awake — or, with the inline test
// seam, with both stages on the caller. Any other is one fused prep pass
// that grants the H == 0 requests on the spot and lists the rest in
// processing order, then SweepWords over that worklist. The pipeline takes
// first-fit only: a scored pick at level 0 would read the level-1 rows
// stage B is writing, and a random one must draw in level-major order.
func (s *LevelWise) scheduleWords(st *linkstate.State, reqs []Request, sc *Scratch, name string, k Scorer, inline bool) *Result {
	tree := st.Tree()
	// NaturalOrder is the identity, so the worklist is filled straight from
	// the batch with no index buffer to build and gather through.
	var order []int
	if s.Opts.Order != NaturalOrder {
		order = orderIndicesInto(sc.prepOrder(len(reqs)), tree, reqs, s.Opts.Order, k.Rand)
	}
	if k.firstFit() && pipelines(st, len(reqs)) && (inline || runtime.GOMAXPROCS(0) >= 2 && reserveHelper()) {
		return s.schedulePipelined(st, reqs, sc, name, order, !inline)
	}
	outs, arena, work := sc.prepWords(tree, reqs)
	L := tree.LinkLevels()
	granted := 0
	for k := range reqs {
		i := k
		if order != nil {
			i = order[k]
		}
		sigma, delta, h := tree.RouteStartShift(reqs[i].Src, reqs[i].Dst)
		if h < 0 {
			sigma, delta, h = tree.RouteStart(reqs[i].Src, reqs[i].Dst)
		}
		if h == 0 {
			outs[i].set(reqs[i], 0, true, arena[i*L:i*L:i*L], -1)
			granted++
			continue
		}
		work = append(work, SweepPos{I: int32(i), Sigma: int32(sigma), Delta: int32(delta), H: int32(h)})
	}
	var ops Counters
	granted += SweepWords(st, reqs, outs, arena, work, k, s.Opts.Rollback, &ops)
	sc.res = Result{Scheduler: name, Outcomes: outs, Granted: granted, Total: len(outs), Ops: ops}
	return &sc.res
}

// SweepWords is the level-major sweep on single-word rows: the paper's
// Figure 7 loop as a streaming kernel, and the one site of the word-AND
// pick (internal/parsched runs its shards through it too). k picks the
// ports: first-fit is claimPort's trailing-zeros, inline; any other policy
// is k.Pick on the AND-ed word, whose scored picks read level h+1's rows,
// which no level-h step writes. work lists the live requests in
// arbitration order, each with H > 0 and positioned at level 0. It is
// consumed: every level sweeps it once and compacts the survivors in
// place, stably, so arbitration order never changes. A level fetches its
// two link rows' words and its parent table block once; a request's step
// is then one AND, one pick, two bit clears and, below its last level, two
// parent reads. On a load-tracking
// state a claim also counts on its two channels with plain adds — the
// sweep owns the rows it is clearing — and the occupancy gauge moves once,
// when the sweep is done (a rollback inside it settles its own route).
//
// Request i's ports go to arena[i*L+h] (L link levels; arena holds
// len(reqs)*L ints), and outs[i] is written exactly once, whole, when the
// verdict falls: granted with all H ports, or denied at the first conflict
// with FailLevel set and Ports holding the FailLevel ports the request
// still occupies — none after a rollback, which releases them through
// ReleaseRoute. SweepWords returns the number of grants and adds to ops
// what the Vector path counts for the same sweep, step for step.
//
// Level-major order is also what lets a batch run as the level pipeline
// (pipeline.go), level 0 on the caller and the levels above on a helper at
// the same time, with this Result bit for bit: a level-h step touches only
// level-h rows, each level still takes the requests in arbitration order,
// and a rollback here runs only after every level below its failure level
// is swept, so deferring it to the batch's end changes no decision.
// ScheduleInto takes the pipeline for first-fit batches of at least
// pipelineMin requests with two or more link levels, table view,
// GOMAXPROCS ≥ 2 and the helper free; every other batch, and every
// parsched shard, comes here.
func SweepWords(st *linkstate.State, reqs []Request, outs []Outcome, arena []int, work []SweepPos, k Scorer, rollback bool, ops *Counters) (granted int) {
	tree := st.Tree()
	L := tree.LinkLevels()
	track := st.LoadTracking()
	first := k.firstFit()
	visits, picks := 0, 0
	for h := 0; len(work) > 0; h++ {
		uw, dw := st.LevelWords(h)
		up, stride := tree.UpBlock(h)
		visits += len(work)
		live := 0
		for _, pos := range work {
			i, sigma, delta := int(pos.I), int(pos.Sigma), int(pos.Delta)
			base := i * L
			var p int
			if first {
				p = claimPort(&uw[sigma], &dw[delta])
			} else if p = k.Pick(st, h, sigma, delta, []uint64{uw[sigma] & dw[delta]}); p >= 0 {
				linkstate.AllocateWords(&uw[sigma], &dw[delta], uint64(1)<<uint(p))
			}
			if p < 0 {
				held := arena[base : base+h : base+int(pos.H)]
				if rollback {
					ReleaseRoute(st, reqs[i].Src, reqs[i].Dst, held, ops)
					held = held[:0]
				}
				outs[i].set(reqs[i], int(pos.H), false, held, h)
				continue
			}
			if track {
				st.NoteAllocBoth(h, sigma, delta, p)
			}
			picks++
			arena[base+h] = p
			if h+1 == int(pos.H) {
				outs[i].set(reqs[i], h+1, true, arena[base:base+h+1:base+h+1], -1)
				granted++
				continue
			}
			if up != nil {
				pos.Sigma, pos.Delta = up[sigma*stride+p], up[delta*stride+p]
			} else { // the arithmetic view has no table
				pos.Sigma, pos.Delta = int32(tree.UpParent(h, sigma, p)), int32(tree.UpParent(h, delta, p))
			}
			work[live] = pos
			live++
		}
		work = work[:live]
	}
	if track {
		st.MoveOccupancy(2 * picks)
	}
	ops.VectorReads += 2 * visits
	ops.VectorANDs += visits
	ops.Steps += visits
	ops.PortPicks += visits
	ops.Allocs += 2 * picks
	return granted
}

// claimPort is the word kernel's one decision, shared by SweepWords and
// both stages of the level pipeline: AND the source-side Ulink word with
// the mirror Dlink word, take the lowest port free in both and clear it on
// both sides. It returns -1, changing nothing, when no port is free.
func claimPort(u, d *uint64) int {
	w := *u & *d
	if w == 0 {
		return -1
	}
	p := bits.TrailingZeros64(w)
	linkstate.AllocateWords(u, d, uint64(1)<<uint(p))
	return p
}

// scheduleOne routes a single request through all its levels
// (request-major traversal — the order the hardware pipeline realizes).
// avail is the caller's scratch availability vector and words its storage.
func (s *LevelWise) scheduleOne(st *linkstate.State, o *Outcome, ops *Counters, k Scorer, avail bitvec.Vector, words []uint64) {
	tree := st.Tree()
	if o.H == 0 {
		o.Granted = true
		return
	}
	var cur RouteCursor
	cur.Start(tree, o.Src, o.Dst)
	for h := 0; h < o.H; h++ {
		st.AvailBothInto(avail, h, cur.Sigma(), cur.Delta())
		ops.VectorReads += 2
		ops.VectorANDs++
		ops.Steps++
		p := k.Pick(st, h, cur.Sigma(), cur.Delta(), words)
		ops.PortPicks++
		if s.Opts.Trace != nil {
			s.Opts.Trace(TraceEvent{Scheduler: s.Name(), Src: o.Src, Dst: o.Dst, Level: h,
				Phase: "combined", Sigma: cur.Sigma(), Delta: cur.Delta(), Avail: avail.String(), Port: p})
		}
		if p < 0 {
			o.FailLevel = h
			if s.Opts.Rollback {
				s.rollback(st, o, ops)
			}
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

// rollback releases the channels a failed request allocated at levels
// below its failure level.
func (s *LevelWise) rollback(st *linkstate.State, o *Outcome, ops *Counters) {
	ReleaseRoute(st, o.Src, o.Dst, o.Ports, ops)
	o.Ports = o.Ports[:0]
}

// mustAllocate claims a channel whose availability was just verified; an
// error here is a scheduler invariant violation, not a runtime condition.
func mustAllocate(st *linkstate.State, d linkstate.Direction, h, idx, p int) {
	if err := st.Allocate(d, h, idx, p); err != nil {
		panic(fmt.Sprintf("core: invariant violation: %v", err))
	}
}

// mustRelease returns a channel the scheduler itself allocated.
func mustRelease(st *linkstate.State, d linkstate.Direction, h, idx, p int) {
	if err := st.Release(d, h, idx, p); err != nil {
		panic(fmt.Sprintf("core: invariant violation: %v", err))
	}
}
