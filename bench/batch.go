package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// batch_perm is the paper's own evaluation shape: whole random permutations
// of a 4096-node FT(3,16,16) scheduled by the Level-wise engine, one
// goroutine, nothing above core. An operation is one permutation:
// State.Reset plus ScheduleInto with a reused Scratch.

const (
	batchPerms = 64
	batchSpec  = "level-wise,rollback"
)

func newBatchTree() *topology.Tree { return topology.MustNew(3, 16, 16) }

// batchInputs is the seeded request stream: the only thing the seed decides.
func batchInputs(seed int64) [][]core.Request {
	return traffic.NewGenerator(newBatchTree().Nodes(), seed).Permutations(batchPerms)
}

type batchPerm struct {
	perms [][]core.Request
	// want[i] is how many requests of permutation i the untimed reference
	// pass granted; the timed passes must grant exactly as many.
	want           []int
	granted, total uint64 // of the reference pass: the exact grant_ratio

	tree *topology.Tree
	st   *linkstate.State
	eng  sched.Engine
	sc   *core.Scratch
	next int

	problems []string
}

func newBatchPerm(seed int64) *batchPerm { return &batchPerm{perms: batchInputs(seed)} }

func (b *batchPerm) clients() int { return 1 }

func (b *batchPerm) spanNames() [3]string {
	return [3]string{"loadgen.iter", "linkstate.reset", "core.schedule"}
}

// reference is the untimed pass: it schedules every permutation once on its
// own state, proves each result conflict-free with core.Verify, and fixes
// the per-permutation grant counts the timed passes are held to.
func (b *batchPerm) reference() error {
	tree := newBatchTree()
	st := linkstate.New(tree)
	eng, err := sched.Parse(batchSpec)
	if err != nil {
		return err
	}
	b.want = make([]int, len(b.perms))
	for i, p := range b.perms {
		st.Reset()
		res := eng.Schedule(st, p)
		if err := core.Verify(tree, res); err != nil {
			return fmt.Errorf("permutation %d: %w", i, err)
		}
		b.want[i] = res.Granted
		b.granted += uint64(res.Granted)
		b.total += uint64(res.Total)
	}
	return nil
}

// setup builds tree, state, engine and scratch and runs one pass over the
// permutations, which grows the scratch to its high-water mark.
func (b *batchPerm) setup() error {
	b.tree = newBatchTree()
	b.st = linkstate.New(b.tree)
	eng, err := sched.Parse(batchSpec)
	if err != nil {
		return err
	}
	b.eng, b.sc, b.next = eng, core.NewScratch(), 0
	for _, p := range b.perms {
		b.st.Reset()
		b.eng.ScheduleInto(b.st, p, b.sc)
	}
	return nil
}

func (b *batchPerm) round(w *window, tr *tracer) error {
	var rec recorder
	rec.attach(w)
	deadline := w.deadline()
	for now := time.Now(); now.Before(deadline); {
		traced := tr != nil && rec.idx&1 == 1
		i := b.next
		b.next = (b.next + 1) % len(b.perms)
		t0 := now
		b.st.Reset()
		var mid time.Time
		if traced {
			mid = time.Now()
		}
		res := b.eng.ScheduleInto(b.st, b.perms[i], b.sc)
		now = time.Now()
		if res.Granted != b.want[i] || res.Total != len(b.perms[i]) {
			rec.fail(now)
			if len(b.problems) < 16 {
				b.problems = append(b.problems, fmt.Sprintf("permutation %d granted %d of %d, the reference pass granted %d",
					i, res.Granted, res.Total, b.want[i]))
			}
		} else {
			rec.op(now, now.Sub(t0), uint64(res.Total), uint64(res.Granted))
		}
		if traced {
			tr.add(0, iterRec{start: tr.ns(t0), a: [2]int64{tr.ns(t0), tr.ns(mid)},
				b: [2]int64{tr.ns(mid), tr.ns(now)}, end: tr.ns(now)})
		}
	}
	rec.flush()
	return nil
}

// grantRatio is exact: the reference pass's integers, the same on every run
// of a seed, whichever permutation the window happened to stop at.
func (b *batchPerm) grantRatio(estimate) float64 { return float64(b.granted) / float64(b.total) }

func (b *batchPerm) memMB() (float64, error) { return heapMB(), nil }

// windowMetrics is empty: no serving layer is on this workload's path.
func (b *batchPerm) windowMetrics() map[string]float64 { return map[string]float64{} }

func (b *batchPerm) check() []string {
	p := b.problems
	b.problems = nil
	return p
}

func (b *batchPerm) finish() []string {
	b.st, b.eng, b.sc = nil, nil, nil
	return nil
}
