// Package parsched parallelizes the Level-wise batch scheduler across
// worker goroutines, exploiting the structural fact the paper's hardware
// exploits: two level-h requests can only conflict through a shared
// Ulink(h, σ) row or Dlink(h, δ) row, so the per-level arbitration that
// the hardware performs concurrently in every switch can be performed
// concurrently in software workers.
//
// The engine implements core.Scheduler and offers three modes:
//
//   - Racy: workers own disjoint request chunks and claim channels
//     directly with lock-free CAS operations (linkstate.TryAllocate).
//     Maximum throughput; the grant set may differ run to run under
//     contention, but every produced Result is conflict-free — each
//     channel is claimed by exactly one winner — which core.Verify's
//     replay proves.
//
//   - Deterministic: a two-phase sweep per level. Phase one proposes a
//     first-fit port for every live request in parallel against the
//     level-entry state; phase two commits proposals sequentially in
//     request order, re-arbitrating only requests whose proposed port an
//     earlier commit took. Because availability bits at a level only fall
//     during commits, an intact proposal is provably the port the
//     sequential level-major scheduler would pick, so the Result is
//     bit-identical to core.LevelWise (grants, ports, fail levels, final
//     link state).
//
//   - Shard: subtree sharding. Requests whose source/destination LCA
//     stays inside one level-ℓ subtree touch Ulink/Dlink rows only
//     inside that subtree, so disjoint subtrees schedule concurrently
//     with plain (non-atomic) operations and zero coordination — no
//     per-level barrier, no CAS retries; each shard owns its subtree's
//     channel words outright. Root-crossing requests run afterwards
//     through the Deterministic two-phase sweep. Work stealing
//     (Config.Steal) lets idle workers claim whole unstarted shards
//     from other workers' queues under skewed traffic. The grant set is
//     run-to-run deterministic (each shard is processed sequentially in
//     batch order by exactly one worker) but not bit-identical to the
//     sequential scheduler: shard-confined requests are arbitrated
//     before root-crossing ones.
//
// Options the parallel sweeps cannot honor (Trace hooks, non-first-fit
// policies in Deterministic and Shard modes, LeastLoaded in Racy mode,
// request-major traversal) make Schedule fall back to the sequential
// scheduler with the same options, so the engine is always safe to
// install. So do degenerate batches: fewer than two requests, fewer
// requests than would keep two workers busy, and (for Shard mode) trees
// whose shape yields fewer than two populated shards.
package parsched

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// Mode selects the parallel arbitration strategy.
type Mode int

// Engine modes.
const (
	// Deterministic reproduces the sequential level-major scheduler's
	// Result bit for bit via two-phase propose/commit levels.
	Deterministic Mode = iota
	// Racy lets workers CAS-claim channels directly; fastest, with a
	// run-to-run nondeterministic (but always conflict-free) grant set.
	Racy
	// Shard partitions the batch by level-ℓ subtree: disjoint subtrees
	// schedule concurrently with plain operations (no barrier, no CAS),
	// root-crossing requests fall back to the Deterministic two-phase
	// sweep. Conflict-free and run-to-run deterministic.
	Shard
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Deterministic:
		return "deterministic"
	case Racy:
		return "racy"
	case Shard:
		return "shard"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes an Engine.
type Config struct {
	// Workers is the number of scheduling goroutines (default: GOMAXPROCS).
	Workers int
	// Mode selects Deterministic, Racy, or Shard arbitration.
	Mode Mode
	// Steal enables work stealing across shard queues (Shard mode only):
	// a worker that drains its own queue claims whole unstarted shards
	// from other workers, which bounds the tail under skewed traffic.
	Steal bool
	// ShardLevel is the subtree level ℓ Shard mode partitions at
	// (0 = one level below the root, the coarsest split that yields
	// more than one shard). Lower levels give more, smaller shards but
	// classify more requests as root-crossing.
	ShardLevel int
	// Opts are the Level-wise options to schedule with; see the package
	// comment for the combinations each mode can honor in parallel.
	Opts core.Options
}

// Engine is a parallel Level-wise batch scheduler. It is stateless across
// batches (every Schedule call allocates its own working set), so one
// Engine may be shared, but a linkstate.State must still be owned by one
// Schedule call at a time — internal/fabric guarantees that with its
// manager lock.
type Engine struct {
	workers    int
	mode       Mode
	steal      bool
	shardLevel int
	opts       core.Options
	name       string
	seq        *core.LevelWise
}

// New returns an Engine; zero Workers means runtime.GOMAXPROCS(0).
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	modeName := cfg.Mode.String()
	if cfg.Mode == Shard && cfg.Steal {
		modeName += "+steal"
	}
	return &Engine{
		workers:    w,
		mode:       cfg.Mode,
		steal:      cfg.Steal,
		shardLevel: cfg.ShardLevel,
		opts:       cfg.Opts,
		name:       fmt.Sprintf("parallel-level-wise/%s/w%d", modeName, w),
		seq:        &core.LevelWise{Opts: cfg.Opts},
	}
}

// Name identifies the engine in results and reports.
func (e *Engine) Name() string { return e.name }

// Workers reports the configured worker count.
func (e *Engine) Workers() int { return e.workers }

// Mode reports the configured arbitration mode.
func (e *Engine) Mode() Mode { return e.mode }

// parallelizable reports whether the configured options can be honored by
// the parallel sweeps (otherwise Schedule runs the sequential scheduler).
func (e *Engine) parallelizable() bool {
	if e.opts.Trace != nil || e.opts.Traversal != core.LevelMajor {
		return false
	}
	if e.opts.ReuseCost > 0 {
		// The reuse-cost pick reads neighbor occupancy rows (like
		// LeastLoaded) and its score depends on commit order, so no
		// parallel mode can honor it.
		return false
	}
	switch e.mode {
	case Deterministic:
		// Phase-two re-arbitration is only provably identical to the
		// sequential pick for first-fit selection.
		return e.opts.Policy == core.FirstFit
	case Racy:
		// LeastLoaded reads neighbor rows without atomics; first-fit and
		// random picks act only on the worker's own atomic snapshot.
		return e.opts.Policy != core.LeastLoaded
	case Shard:
		// The per-shard sweep and the root-crossing two-phase fallback
		// both arbitrate first-fit.
		return e.opts.Policy == core.FirstFit
	default:
		return false
	}
}

// Schedule routes the batch, mutating st, using worker goroutines when
// the configured options allow it and the sequential scheduler otherwise.
// Degenerate batches (0 or 1 requests, or more workers than requests)
// run sequentially rather than spinning idle workers.
func (e *Engine) Schedule(st *linkstate.State, reqs []core.Request) *core.Result {
	return e.ScheduleInto(st, reqs, core.NewScratch())
}

// ScheduleInto is Schedule for a caller that owns a Scratch (the fabric
// manager): a batch that runs sequentially goes through sc, so small
// epochs stay allocation-free once sc is warm. Parallel sweeps build
// their own working set and leave sc untouched.
func (e *Engine) ScheduleInto(st *linkstate.State, reqs []core.Request, sc *core.Scratch) *core.Result {
	workers := min(e.workers, len(reqs))
	if workers <= 1 || !e.parallelizable() {
		return e.seq.ScheduleInto(st, reqs, sc)
	}
	switch e.mode {
	case Racy:
		return e.scheduleRacy(st, reqs, workers)
	case Shard:
		return e.scheduleShard(st, reqs, workers)
	default:
		return e.scheduleDeterministic(st, reqs, workers)
	}
}

// finish assembles the batch result (mirrors core's accounting).
func (e *Engine) finish(outs []core.Outcome, ops core.Counters) *core.Result {
	res := &core.Result{Scheduler: e.name, Outcomes: outs, Total: len(outs), Ops: ops}
	for i := range outs {
		if outs[i].Granted {
			res.Granted++
		}
	}
	return res
}

// mustAllocate claims a channel whose availability was just verified
// under the commit serialization; failure is an engine invariant
// violation.
func mustAllocate(st *linkstate.State, d linkstate.Direction, h, idx, p int) {
	if err := st.Allocate(d, h, idx, p); err != nil {
		panic(fmt.Sprintf("parsched: invariant violation: %v", err))
	}
}

// rollback releases a failed request's lower-level channels with plain
// (serialized) operations — Deterministic mode's phase two only.
func rollback(st *linkstate.State, o *core.Outcome, ops *core.Counters) {
	core.ReleaseRoute(st, o.Src, o.Dst, o.Ports, ops)
	o.Ports = o.Ports[:0]
}

// scheduleDeterministic runs the two-phase level-major sweep.
//
// Correctness of the fast path: within one level, availability bits only
// transition 1→0 (commits allocate; rollbacks release only lower levels),
// so if a request's proposed first-fit port p still has both bits set at
// its commit turn, every port below p was already unavailable at level
// entry and still is — p is exactly the sequential scheduler's pick. Only
// proposals invalidated by an earlier commit re-arbitrate.
func (e *Engine) scheduleDeterministic(st *linkstate.State, reqs []core.Request, workers int) *core.Result {
	tree := st.Tree()
	rng := e.opts.Rand
	if rng == nil && e.opts.Order == core.ShuffledOrder {
		rng = rand.New(rand.NewSource(1))
	}
	outs := core.NewOutcomes(tree, reqs)
	order := core.OrderIndices(tree, reqs, e.opts.Order, rng)
	n := len(reqs)

	curs := make([]topology.RouteCursor, n)
	alive := make([]bool, n)
	maxH := 0
	for i := range outs {
		curs[i].Start(tree, outs[i].Src, outs[i].Dst)
		if outs[i].H == 0 {
			outs[i].Granted = true
		} else {
			alive[i] = true
			if outs[i].H > maxH {
				maxH = outs[i].H
			}
		}
	}

	var ops core.Counters
	tp := newTwoPhase(e, st, outs, curs, alive, workers)
	tp.run(order, maxH, &ops)
	return e.finish(outs, ops)
}

// twoPhase is the working set of one deterministic two-phase sweep. It
// is built once per batch by scheduleDeterministic (over the whole
// batch) and by scheduleShard (over the root-crossing remainder after
// the shard phase).
type twoPhase struct {
	e           *Engine
	st          *linkstate.State
	outs        []core.Outcome
	curs        []topology.RouteCursor
	alive       []bool
	proposal    []int
	scratch     []bitvec.Vector
	commitAvail bitvec.Vector
	active      []int
	workers     int
}

func newTwoPhase(e *Engine, st *linkstate.State, outs []core.Outcome, curs []topology.RouteCursor, alive []bool, workers int) *twoPhase {
	w := st.Tree().Parents()
	tp := &twoPhase{
		e:           e,
		st:          st,
		outs:        outs,
		curs:        curs,
		alive:       alive,
		proposal:    make([]int, len(outs)),
		scratch:     make([]bitvec.Vector, workers),
		commitAvail: bitvec.New(w),
		active:      make([]int, 0, len(outs)),
		workers:     workers,
	}
	for wk := range tp.scratch {
		tp.scratch[wk] = bitvec.New(w)
	}
	return tp
}

// run sweeps levels 0..maxH-1 over the requests listed in order (a
// subset of the batch in processing order); dead or shorter requests
// are filtered per level through alive and H.
func (tp *twoPhase) run(order []int, maxH int, ops *core.Counters) {
	e, st, outs, curs, alive := tp.e, tp.st, tp.outs, tp.curs, tp.alive
	for h := 0; h < maxH; h++ {
		active := tp.active[:0]
		for _, i := range order {
			if alive[i] && h < outs[i].H {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			break
		}
		// Phase one: propose first-fit ports in parallel against the
		// level-entry state. Workers only read link rows and write
		// disjoint proposal slots; the WaitGroup is the barrier that
		// orders these reads before phase two's writes.
		chunk := (len(active) + tp.workers - 1) / tp.workers
		var wg sync.WaitGroup
		for wk := 0; wk < tp.workers; wk++ {
			lo := wk * chunk
			if lo >= len(active) {
				break
			}
			hi := min(lo+chunk, len(active))
			wg.Add(1)
			go func(avail bitvec.Vector, part []int) {
				defer wg.Done()
				for _, i := range part {
					st.AvailBothInto(avail, h, curs[i].Sigma(), curs[i].Delta())
					if p, ok := avail.FirstSet(); ok {
						tp.proposal[i] = p
					} else {
						tp.proposal[i] = -1
					}
				}
			}(tp.scratch[wk], active[lo:hi])
		}
		wg.Wait()
		ops.VectorReads += 2 * len(active)
		ops.VectorANDs += len(active)
		ops.PortPicks += len(active)

		// Phase two: commit in request order.
		for _, i := range active {
			o := &outs[i]
			ops.Steps++
			p := tp.proposal[i]
			if p >= 0 && !(st.ULink(h, curs[i].Sigma()).Get(p) && st.DLink(h, curs[i].Delta()).Get(p)) {
				// An earlier commit took the proposed port: re-arbitrate
				// against the committed state, exactly as the sequential
				// scheduler would at this request's turn.
				st.AvailBothInto(tp.commitAvail, h, curs[i].Sigma(), curs[i].Delta())
				ops.VectorReads += 2
				ops.VectorANDs++
				ops.PortPicks++
				if np, ok := tp.commitAvail.FirstSet(); ok {
					p = np
				} else {
					p = -1
				}
			}
			if p < 0 {
				alive[i] = false
				o.FailLevel = h
				if e.opts.Rollback {
					rollback(st, o, ops)
				}
				continue
			}
			mustAllocate(st, linkstate.Up, h, curs[i].Sigma(), p)
			mustAllocate(st, linkstate.Down, h, curs[i].Delta(), p)
			ops.Allocs += 2
			o.Ports = append(o.Ports, p)
			curs[i].Advance(p)
			if len(o.Ports) == o.H {
				o.Granted = true
				alive[i] = false
			}
		}
	}
}

// scheduleRacy fans the batch out to workers that claim channels with
// lock-free CAS. Each worker owns a contiguous chunk of the processing
// order, a scratch availability vector, a tried-ports mask, a ports
// arena, and (for RandomFit) its own RNG.
func (e *Engine) scheduleRacy(st *linkstate.State, reqs []core.Request, workers int) *core.Result {
	tree := st.Tree()
	rng := e.opts.Rand
	if rng == nil && (e.opts.Policy == core.RandomFit || e.opts.Order == core.ShuffledOrder) {
		rng = rand.New(rand.NewSource(1))
	}
	outs := core.NewOutcomes(tree, reqs)
	order := core.OrderIndices(tree, reqs, e.opts.Order, rng)
	chunk := (len(order) + workers - 1) / workers
	var seedBase int64 = 1
	if rng != nil {
		seedBase = rng.Int63()
	}
	workerOps := make([]core.Counters, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		lo := wk * chunk
		if lo >= len(order) {
			break
		}
		hi := min(lo+chunk, len(order))
		wg.Add(1)
		go func(wk int, part []int) {
			defer wg.Done()
			var wrng *rand.Rand
			if e.opts.Policy == core.RandomFit {
				wrng = rand.New(rand.NewSource(seedBase + int64(wk)))
			}
			w := tree.Parents()
			avail := bitvec.NewMatrix(1, w)
			tried := bitvec.New(w)
			// Per-worker ports arena: one carve per outcome, so routing
			// appends never allocate.
			totalH := 0
			for _, i := range part {
				totalH += outs[i].H
			}
			arena := make([]int, totalH)
			off := 0
			for _, i := range part {
				h := outs[i].H
				outs[i].Ports = arena[off : off : off+h]
				off += h
				e.routeRacy(st, tree, &outs[i], avail, tried, core.Scorer{Policy: e.opts.Policy, Rand: wrng}, &workerOps[wk])
			}
		}(wk, order[lo:hi])
	}
	wg.Wait()
	var ops core.Counters
	for i := range workerOps {
		ops.Add(workerOps[i])
	}
	return e.finish(outs, ops)
}

// routeRacy routes one request request-major with CAS claiming, picking
// each port with k from avail's one row. The tried mask guarantees
// termination: a port that lost its CAS (or whose forced downward channel
// lost) is excluded from later retries at that level, so each level
// performs at most w claim attempts.
func (e *Engine) routeRacy(st *linkstate.State, tree *topology.Tree, o *core.Outcome, avail *bitvec.Matrix, tried bitvec.Vector, k core.Scorer, ops *core.Counters) {
	if o.H == 0 {
		o.Granted = true
		return
	}
	row := avail.Row(0)
	var cur topology.RouteCursor
	cur.Start(tree, o.Src, o.Dst)
	for h := 0; h < o.H; h++ {
		tried.ClearAll()
		ops.Steps++
		for {
			st.AvailBothAtomicInto(row, h, cur.Sigma(), cur.Delta())
			row.AndNot(row, tried)
			ops.VectorReads += 2
			ops.VectorANDs++
			p := k.Pick(st, h, cur.Sigma(), cur.Delta(), avail.Words())
			if p < 0 {
				o.FailLevel = h
				if e.opts.Rollback {
					e.rollbackRacy(st, tree, o, ops)
				}
				return
			}
			ops.PortPicks++
			if !st.TryAllocate(linkstate.Up, h, cur.Sigma(), p) {
				tried.Set(p)
				continue
			}
			if !st.TryAllocate(linkstate.Down, h, cur.Delta(), p) {
				st.AtomicRelease(linkstate.Up, h, cur.Sigma(), p)
				tried.Set(p)
				continue
			}
			ops.Allocs += 2
			o.Ports = append(o.Ports, p)
			cur.Advance(p)
			break
		}
	}
	o.Granted = true
}

// rollbackRacy returns a failed request's claimed channels with atomic
// releases (other workers are still claiming concurrently).
func (e *Engine) rollbackRacy(st *linkstate.State, tree *topology.Tree, o *core.Outcome, ops *core.Counters) {
	var c topology.RouteCursor
	c.Start(tree, o.Src, o.Dst)
	c.Walk(o.Ports, func(h, sigma, delta, p int) {
		st.AtomicRelease(linkstate.Up, h, sigma, p)
		st.AtomicRelease(linkstate.Down, h, delta, p)
		ops.Releases += 2
	})
	o.Ports = o.Ports[:0]
}
