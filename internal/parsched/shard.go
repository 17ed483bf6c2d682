package parsched

// Shard mode: subtree-sharded parallel scheduling.
//
// The fat tree's recursive structure gives a free partition of the
// channel state: a request whose source/destination LCA level H is at
// most ℓ routes entirely inside the level-ℓ subtree containing both
// endpoints, touching Ulink(h, σ)/Dlink(h, δ) rows only for switches of
// that subtree (h < ℓ). Requests in distinct level-ℓ subtrees therefore
// touch disjoint row words of the link state — each row is one word of
// its own — so whole subtrees schedule concurrently with plain
// loads and stores: no per-level barrier, no CAS retries, no shared
// scratch. Root-crossing requests (H > ℓ) do share lower-level rows
// with shard-confined traffic, so they run strictly after the shard
// phase, through the Deterministic two-phase sweep.
//
// Classification uses the digits.Kernel subtree arithmetic (one shift
// for power-of-two m, one division otherwise) on top of the same
// XOR/shift LCA the sequential hot path uses.

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// shardTask is one populated subtree's work queue: the requests confined
// to it, in batch processing order, as the level-0 sweep positions
// core.SweepWords consumes. claimed is the steal arbitration: exactly one
// worker wins the CAS and schedules the whole shard, so row ownership
// never migrates mid-shard.
type shardTask struct {
	work    []core.SweepPos
	claimed atomic.Bool
}

// shardSplitLevel picks the partition level ℓ for a tree: the
// configured level when valid, otherwise one level below the root —
// the coarsest split that still yields m shards. Returns -1 when no
// level produces more than one shard (l < 3, or a configured level out
// of range), which sends the batch to the sequential fallback.
func (e *Engine) shardSplitLevel(tree *topology.Tree) int {
	l := tree.Levels()
	if e.shardLevel > 0 {
		if e.shardLevel <= l-2 && tree.Subtrees(e.shardLevel) >= 2 {
			return e.shardLevel
		}
		return -1
	}
	if l < 3 || tree.Subtrees(l-2) < 2 {
		return -1
	}
	return l - 2
}

// scheduleShard partitions the batch by level-ℓ subtree, schedules the
// populated shards concurrently (plain operations on disjoint rows),
// then runs the root-crossing remainder through the deterministic
// two-phase sweep. The result is conflict-free, release-clean, and
// run-to-run deterministic: every shard is processed sequentially in
// batch order by exactly one worker, and shards are independent.
func (e *Engine) scheduleShard(st *linkstate.State, reqs []core.Request, workers int) *core.Result {
	tree := st.Tree()
	lvl := e.shardSplitLevel(tree)
	if lvl < 0 {
		// Single-subtree degenerate (e.g. a 2-level tree): nothing to
		// shard, so do not spin idle workers.
		return e.seq.Schedule(st, reqs)
	}
	rng := e.opts.Rand
	if rng == nil && e.opts.Order == core.ShuffledOrder {
		rng = rand.New(rand.NewSource(1))
	}
	outs := core.NewOutcomes(tree, reqs)
	order := core.OrderIndices(tree, reqs, e.opts.Order, rng)
	n := len(reqs)

	// One fixed-stride ports arena (request i owns arena[i*L:(i+1)*L], the
	// layout core.SweepWords writes), windowed per outcome up front, so
	// shard workers (including thieves) write pre-owned disjoint rows and
	// the routing loops never allocate.
	L := tree.LinkLevels()
	arena := make([]int, n*L)
	curs := make([]topology.RouteCursor, n)
	for i := range outs {
		outs[i].Ports = arena[i*L : i*L : i*L+outs[i].H]
		curs[i].Start(tree, outs[i].Src, outs[i].Dst)
	}

	// Classify in processing order: H == 0 grants trivially, H <= ℓ is
	// confined to the subtree shared by both endpoints, H > ℓ crosses
	// the partition and joins the two-phase remainder.
	nshards := tree.Subtrees(lvl)
	counts := make([]int, nshards)
	sid := make([]int32, n)
	var cross []int
	for _, i := range order {
		switch h := outs[i].H; {
		case h == 0:
			outs[i].Granted = true
			sid[i] = -2
		case h <= lvl:
			s := tree.SubtreeAt(outs[i].Src, lvl)
			sid[i] = int32(s)
			counts[s]++
		default:
			sid[i] = -1
			cross = append(cross, i)
		}
	}

	// Bucket shard-confined requests with a counting sort so each shard's
	// queue preserves the batch processing order.
	offs := make([]int, nshards+1)
	for s, c := range counts {
		offs[s+1] = offs[s] + c
	}
	bucketed := make([]core.SweepPos, offs[nshards])
	fill := append([]int(nil), offs[:nshards]...)
	for _, i := range order {
		if s := sid[i]; s >= 0 {
			bucketed[fill[s]] = core.SweepPos{I: int32(i), Sigma: int32(curs[i].Sigma()), Delta: int32(curs[i].Delta()), H: int32(outs[i].H)}
			fill[s]++
		}
	}
	tasks := make([]*shardTask, 0, nshards)
	for s := 0; s < nshards; s++ {
		if counts[s] > 0 {
			tasks = append(tasks, &shardTask{work: bucketed[offs[s]:offs[s+1]]})
		}
	}
	if len(tasks) < 2 {
		// All traffic lands in one subtree (or none): the shard phase
		// would be sequential anyway, so run the whole batch through the
		// sequential scheduler instead of standing up workers.
		return e.seq.Schedule(st, reqs)
	}

	// Largest shards first, dealt round-robin across workers: an LPT-ish
	// static assignment that stealing then repairs dynamically.
	sort.SliceStable(tasks, func(a, b int) bool { return len(tasks[a].work) > len(tasks[b].work) })
	if workers > len(tasks) {
		workers = len(tasks)
	}
	queues := make([][]*shardTask, workers)
	for t, task := range tasks {
		queues[t%workers] = append(queues[t%workers], task)
	}

	alive := make([]bool, n)
	workerOps := make([]core.Counters, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			run := func(t *shardTask) {
				if !t.claimed.CompareAndSwap(false, true) {
					return
				}
				// The same sweep core.LevelWise performs, on rows only this
				// goroutine touches, so every operation is a plain load or
				// store.
				core.SweepWords(st, reqs, outs, arena, t.work, core.Scorer{}, e.opts.Rollback, &workerOps[wk])
			}
			for _, t := range queues[wk] {
				run(t)
			}
			if e.steal {
				// Scan the other queues for whole unclaimed shards; the
				// CAS above keeps each shard single-owner.
				for d := 1; d < workers; d++ {
					for _, t := range queues[(wk+d)%workers] {
						run(t)
					}
				}
			}
		}(wk)
	}
	wg.Wait()
	var ops core.Counters
	for i := range workerOps {
		ops.Add(workerOps[i])
	}

	// Root-crossing remainder: every shard worker has quiesced, so the
	// two-phase sweep owns all rows again.
	if len(cross) > 0 {
		maxH := 0
		for _, i := range cross {
			alive[i] = true
			if outs[i].H > maxH {
				maxH = outs[i].H
			}
		}
		tp := newTwoPhase(e, st, outs, curs, alive, min(e.workers, len(cross)))
		tp.run(cross, maxH, &ops)
	}
	return e.finish(outs, ops)
}
