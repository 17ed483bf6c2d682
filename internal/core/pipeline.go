package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linkstate"
)

// The level pipeline is the word sweep on two CPUs, laid out as the
// paper's FPGA scheduler is: a chain of P-blocks, one per link level, each
// owning its level's Ulink/Dlink rows, so that request i+1 resolves level
// 0 while request i resolves level 1 (internal/hardware, Table 1).
//
// Stage A, the caller, runs the prep pass and level 0 in one loop, and
// publishes one handoff record per request in arbitration order: the
// SweepPos it prepped, with the level-0 port (or the denial) packed beside
// H and, for a request that climbs on, σ₁/δ₁ in place of σ₀/δ₀. Stage B,
// one process-wide helper goroutine, reads the records in the same order
// and climbs each request through levels 1…H−1. It writes every arena port
// and every Outcome, and lists the rollbacks, which it runs once the last
// record is read.
//
// This is bit-identical to SweepWords' level-major order. A level-h step
// reads and writes only level-h rows (Theorem 2), and each stage takes the
// requests in arbitration order, so every level sees the same requests in
// the same order against the same rows. The one step that reaches across
// levels is a rollback, which releases the rows below its failure level;
// level-major runs it only after every level below has been swept, where
// no later decision reads those rows, so running it after the whole batch
// changes no decision. Counters are the same sums.

const (
	// pipelineMin is the smallest batch the pipeline takes. Below it the
	// hand-off (the job post, the records crossing between the CPUs and the
	// wait for stage B's tail) costs more than level 0 saves on the
	// caller's CPU: on FT(3,16,16) the pipeline loses at 256 requests,
	// breaks even near 512 and wins from about 1024 (EXPERIMENTS E31).
	pipelineMin = 1024
	// helperSpin is how long the helper stays awake after a job, polling
	// for the next one before it parks. Waking a parked goroutine on the
	// other CPU takes longer than a 4096-request batch's level 0 (E31), so
	// back-to-back batches must find it awake; a helper that is not asked
	// again stops spending its CPU after this long.
	helperSpin = 250 * time.Microsecond
	// pipeChunk is how many records stage A publishes per atomic store.
	pipeChunk = 64
	// portShift places the level-0 verdict in a handoff record's H field:
	// H in the low bits, port+1 above them (0: denied at level 0).
	portShift = 8
)

// pipelines reports whether a level-major batch of n requests on st has the
// level pipeline's shape: a large batch, the table view (stage A looks up
// σ₁/δ₁ in the parent table) and a level above level 0. The caller takes
// it when it also has a second CPU and the helper is free.
func pipelines(st *linkstate.State, n int) bool {
	if n < pipelineMin {
		return false
	}
	tree := st.Tree()
	up, _ := tree.UpBlock(0)
	return tree.LinkLevels() >= 2 && up != nil
}

// Job states. A posted job is taken by exactly one side: the helper
// claims it, or the caller, done with level 0 before the helper came,
// takes it back.
const (
	jobPosted int32 = iota + 1
	jobClaimed
	jobReclaimed
	jobDone
)

// pipeJob is one batch's hand-off between the stages; it lives in the
// caller's Scratch and its records in Scratch.work, so posting a job
// allocates nothing.
type pipeJob struct {
	state     atomic.Int32
	published atomic.Int64 // records stage A has finished, a prefix of work

	st       *linkstate.State
	reqs     []Request
	outs     []Outcome
	arena    []int
	work     []SweepPos
	rollback bool

	// Stage B's tallies: its grants, and the counters of its levels and
	// of the rollbacks, with its claims already moved on the gauge.
	granted int
	ops     Counters
}

// helper is the process-wide stage B goroutine, started by the first batch
// the pipeline would take. busy admits one caller at a time, and awake
// says the helper is polling for jobs rather than parked.
var helper struct {
	start sync.Once
	busy  atomic.Bool
	awake atomic.Bool
	job   atomic.Pointer[pipeJob]
	wake  chan struct{}
}

// reserveHelper takes the helper for one batch when it is free and awake.
// A parked helper, or one not started yet, is woken (started) for the
// batches that follow instead, and this batch runs the sequential sweep:
// a wake-up takes longer than the batch's level 0, so a caller that waited
// for it would only take the job back and run both stages itself, slower
// than the sweep (E31).
func reserveHelper() bool {
	if !helper.busy.CompareAndSwap(false, true) {
		return false
	}
	if helper.awake.Load() {
		return true
	}
	helper.start.Do(func() {
		helper.wake = make(chan struct{}, 1)
		go helperLoop()
	})
	select {
	case helper.wake <- struct{}{}:
	default:
	}
	helper.busy.Store(false)
	return false
}

// helperLoop runs stage B of every job it claims, forever: it polls while
// jobs keep coming, and parks until reserveHelper wakes it once none has
// come for helperSpin. A wake token left over from a reservation that
// found it still awake only costs one extra round of polling.
func helperLoop() {
	for {
		helper.awake.Store(true)
		for j := pollJob(); j != nil; j = pollJob() {
			if j.state.CompareAndSwap(jobPosted, jobClaimed) {
				j.climb()
				j.state.Store(jobDone)
			}
		}
		helper.awake.Store(false)
		<-helper.wake
	}
}

// pollJob returns the next posted job, or nil once none has come for
// helperSpin.
func pollJob() *pipeJob {
	deadline := time.Now().Add(helperSpin)
	for spins := 1; ; spins++ {
		if helper.job.Load() != nil {
			if j := helper.job.Swap(nil); j != nil {
				return j
			}
		}
		if spins%64 == 0 {
			if time.Now().After(deadline) {
				return nil
			}
			runtime.Gosched()
		}
	}
}

// awaitPast polls v until it exceeds k and returns it, yielding the CPU
// now and then so that the goroutine it waits on still runs when every P
// is busy.
func awaitPast(v *atomic.Int64, k int64) int64 {
	for spins := 1; ; spins++ {
		if x := v.Load(); x > k {
			return x
		}
		if spins%64 == 0 {
			runtime.Gosched()
		}
	}
}

// schedulePipelined is scheduleInto on the level pipeline; order is the
// processing order (nil: natural). With post the caller holds the helper
// (reserveHelper), posts it stage B and releases it on return, a rejected
// batch included. A caller that finishes level 0 before the helper has
// claimed the job — the helper lost its CPU, or parked just after the
// reservation — takes the job back. Without post, and after a take-back,
// the caller runs stage B itself after stage A.
func (s *LevelWise) schedulePipelined(st *linkstate.State, reqs []Request, sc *Scratch, name string, order []int, post bool) *Result {
	if post {
		defer helper.busy.Store(false)
	}
	tree := st.Tree()
	// Stage A preps and sweeps in one pass, so the endpoints are checked
	// first: a bad one anywhere in the batch panics with the link state
	// untouched, as the sequential prep pass does.
	nodes := uint(tree.Nodes())
	for _, r := range reqs {
		if uint(r.Src) >= nodes || uint(r.Dst) >= nodes {
			tree.RouteStart(r.Src, r.Dst) // panics, naming the endpoint
		}
	}
	outs, arena, work := sc.prepWords(tree, reqs)
	j := &sc.pipe
	j.st, j.reqs, j.outs, j.arena, j.work, j.rollback = st, reqs, outs, arena, work[:len(reqs)], s.Opts.Rollback
	j.published.Store(0)
	if post {
		j.state.Store(jobPosted)
		helper.job.Store(j)
	}
	visits, picks := j.level0(order)
	if !post || j.state.CompareAndSwap(jobPosted, jobReclaimed) {
		if post {
			helper.job.CompareAndSwap(j, nil)
		}
		j.climb()
	} else {
		for spins := 1; j.state.Load() != jobDone; spins++ {
			if spins%64 == 0 {
				runtime.Gosched()
			}
		}
	}

	ops := j.ops
	ops.VectorReads += 2 * visits
	ops.VectorANDs += visits
	ops.Steps += visits
	ops.PortPicks += visits
	ops.Allocs += 2 * picks
	if st.LoadTracking() {
		st.MoveOccupancy(2 * picks)
	}
	sc.res = Result{Scheduler: name, Outcomes: outs, Granted: j.granted, Total: len(outs), Ops: ops}
	j.st, j.reqs, j.outs, j.arena, j.work = nil, nil, nil, nil, nil
	return &sc.res
}

// level0 is stage A: for each request in processing order it finds the
// route start (σ₀, δ₀, H), claims the level-0 port and writes the handoff
// record — the port packed beside H and, for a request that climbs on,
// the level-1 pair — publishing every pipeChunk records. It returns the
// level's visits and claims.
func (j *pipeJob) level0(order []int) (visits, picks int) {
	st, reqs, work := j.st, j.reqs, j.work
	tree := st.Tree()
	uw, dw := st.LevelWords(0)
	up, stride := tree.UpBlock(0)
	track := st.LoadTracking()
	for start := 0; start < len(work); start += pipeChunk {
		end := min(start+pipeChunk, len(work))
		for k := start; k < end; k++ {
			i := k
			if order != nil {
				i = order[k]
			}
			sigma, delta, h := tree.RouteStartShift(reqs[i].Src, reqs[i].Dst)
			if h < 0 {
				sigma, delta, h = tree.RouteStart(reqs[i].Src, reqs[i].Dst)
			}
			pos := SweepPos{I: int32(i), Sigma: int32(sigma), Delta: int32(delta), H: int32(h)}
			if h > 0 {
				visits++
				if p := claimPort(&uw[sigma], &dw[delta]); p >= 0 {
					if track {
						st.NoteAllocBoth(0, sigma, delta, p)
					}
					picks++
					if h > 1 {
						pos.Sigma, pos.Delta = up[sigma*stride+p], up[delta*stride+p]
					}
					pos.H |= int32(p+1) << portShift
				}
			}
			work[k] = pos
		}
		j.published.Store(int64(end))
	}
	return visits, picks
}

// climb is stage B: it takes the records in order as stage A publishes
// them, writes each request's level-0 verdict, climbs the survivors
// through levels 1…H−1 and writes their outcomes. A denial's rollback is
// listed, not run, until the last record is read: level 0 belongs to
// stage A until then.
func (j *pipeJob) climb() {
	st, reqs, outs, arena, work, rollback := j.st, j.reqs, j.outs, j.arena, j.work, j.rollback
	tree := st.Tree()
	L := tree.LinkLevels()
	track := st.LoadTracking()
	granted, visits, picks := 0, 0, 0
	// Denials awaiting rollback, linked through the arena: a request denied
	// at level h holds ports below h only, so its arena cell h is free to
	// name the next one.
	rollbacks := -1
	for k := 0; k < len(work); {
		end := int(awaitPast(&j.published, int64(k)))
		for ; k < end; k++ {
			pos := work[k]
			i := int(pos.I)
			base := i * L
			H := int(pos.H & (1<<portShift - 1))
			p := int(pos.H>>portShift) - 1
			if H == 0 {
				outs[i].set(reqs[i], 0, true, arena[base:base:base], -1)
				granted++
				continue
			}
			if p < 0 {
				outs[i].set(reqs[i], H, false, arena[base:base:base+H], 0)
				continue
			}
			arena[base] = p
			// Levels 1…H−1, one claim each; σ/δ climb by the parent table.
			sigma, delta, h := int(pos.Sigma), int(pos.Delta), 1
			for ; h < H; h++ {
				uw, dw := st.LevelWords(h)
				visits++
				if p = claimPort(&uw[sigma], &dw[delta]); p < 0 {
					break
				}
				if track {
					st.NoteAllocBoth(h, sigma, delta, p)
				}
				picks++
				arena[base+h] = p
				if h+1 < H {
					up, stride := tree.UpBlock(h)
					sigma, delta = int(up[sigma*stride+p]), int(up[delta*stride+p])
				}
			}
			if h == H {
				outs[i].set(reqs[i], H, true, arena[base:base+H:base+H], -1)
				granted++
				continue
			}
			held := arena[base : base+h : base+H]
			if rollback {
				arena[base+h] = rollbacks
				rollbacks = i
				held = held[:0]
			}
			outs[i].set(reqs[i], H, false, held, h)
		}
	}
	// Every record is read, so stage A is done with level 0 and the
	// rollbacks can run.
	ops := Counters{VectorReads: 2 * visits, VectorANDs: visits, Steps: visits, PortPicks: visits, Allocs: 2 * picks}
	for i := rollbacks; i >= 0; {
		base, h := i*L, outs[i].FailLevel
		next := arena[base+h]
		ReleaseRoute(st, reqs[i].Src, reqs[i].Dst, arena[base:base+h], &ops)
		i = next
	}
	if track {
		st.MoveOccupancy(2 * picks)
	}
	j.granted, j.ops = granted, ops
}
