package sched

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/optimal"
	"repro/internal/parsched"
	"repro/internal/topology"
)

func randomBatch(tree *topology.Tree, rng *rand.Rand, n int) []core.Request {
	reqs := make([]core.Request, n)
	for i := range reqs {
		reqs[i] = core.Request{Src: rng.Intn(tree.Nodes()), Dst: rng.Intn(tree.Nodes())}
	}
	return reqs
}

// sameResult compares everything an outcome records plus the batch
// totals; it is the bit-identity oracle for the golden test.
func sameResult(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if got.Granted != want.Granted || got.Total != want.Total {
		t.Fatalf("%s: granted/total %d/%d, want %d/%d", label, got.Granted, got.Total, want.Granted, want.Total)
	}
	for i := range want.Outcomes {
		g, w := &got.Outcomes[i], &want.Outcomes[i]
		if g.Granted != w.Granted || g.FailLevel != w.FailLevel || g.FailDown != w.FailDown {
			t.Fatalf("%s: outcome %d (granted=%v fail=%d down=%v), want (granted=%v fail=%d down=%v)",
				label, i, g.Granted, g.FailLevel, g.FailDown, w.Granted, w.FailLevel, w.FailDown)
		}
		if len(g.Ports) != len(w.Ports) {
			t.Fatalf("%s: outcome %d has %d ports, want %d", label, i, len(g.Ports), len(w.Ports))
		}
		for j := range w.Ports {
			if g.Ports[j] != w.Ports[j] {
				t.Fatalf("%s: outcome %d port[%d] = %d, want %d", label, i, j, g.Ports[j], w.Ports[j])
			}
		}
	}
}

// TestGoldenRegistryMatchesConstructors pins registry-built engines to
// the direct constructors they replace: identical grants, ports, fail
// levels, and final link state on shared random batches. Randomized
// engines are pinned through seed= so both sides draw the same stream.
func TestGoldenRegistryMatchesConstructors(t *testing.T) {
	cases := []struct {
		spec   string
		direct func() core.Scheduler
	}{
		{"level-wise", func() core.Scheduler { return core.NewLevelWise() }},
		{"level-wise,rollback", func() core.Scheduler {
			return &core.LevelWise{Opts: core.Options{Rollback: true}}
		}},
		{"level-wise,traversal=request-major", func() core.Scheduler {
			return &core.LevelWise{Opts: core.Options{Traversal: core.RequestMajor}}
		}},
		{"level-wise,policy=random,order=shuffle,rollback,seed=11", func() core.Scheduler {
			return &core.LevelWise{Opts: core.Options{Policy: core.RandomFit, Order: core.ShuffledOrder,
				Rollback: true, Rand: rand.New(rand.NewSource(11))}}
		}},
		{"local-greedy", func() core.Scheduler { return core.NewLocalGreedy() }},
		{"local-random,seed=7", func() core.Scheduler {
			return &core.Local{Opts: core.Options{Policy: core.RandomFit, Rand: rand.New(rand.NewSource(7))}}
		}},
		{"local,policy=random,retries=2,seed=3", func() core.Scheduler {
			return &core.Local{Opts: core.Options{Policy: core.RandomFit, Retries: 2, Rand: rand.New(rand.NewSource(3))}}
		}},
		{"backtrack,depth=4", func() core.Scheduler { return &core.BacktrackLevelWise{Backtracks: 4} }},
		{"stale,window=8", func() core.Scheduler { return &core.StaleLevelWise{Window: 8} }},
		{"optimal", func() core.Scheduler { return optimal.New() }},
		{"parallel,workers=4,rollback", func() core.Scheduler {
			return parsched.New(parsched.Config{Workers: 4, Opts: core.Options{Rollback: true}})
		}},
		// Shard mode is run-to-run deterministic (each shard is scheduled
		// sequentially by one owner), so the registry build must match
		// the direct constructor bit for bit too.
		{"parallel,mode=shard,workers=4,steal,rollback", func() core.Scheduler {
			return parsched.New(parsched.Config{Workers: 4, Mode: parsched.Shard, Steal: true,
				Opts: core.Options{Rollback: true}})
		}},
	}
	shapes := [][3]int{{2, 4, 4}, {3, 4, 2}, {2, 6, 3}}
	for _, c := range cases {
		for _, dims := range shapes {
			tree := topology.MustNew(dims[0], dims[1], dims[2])
			reqs := randomBatch(tree, rand.New(rand.NewSource(99)), 40)
			stReg, stDir := linkstate.New(tree), linkstate.New(tree)
			regRes := MustParse(c.spec).Schedule(stReg, reqs)
			dirRes := c.direct().Schedule(stDir, reqs)
			sameResult(t, c.spec, regRes, dirRes)
			if !stReg.Equal(stDir) {
				t.Fatalf("%s on FT%v: final link state diverges from direct constructor", c.spec, dims)
			}
		}
	}
}

// TestGoldenArithmeticCursorBitIdentical pins every registry scheduler
// family bit-identical between the table-driven topology kernel and the
// Theorem 1 arithmetic cursor (topology.WithArithmeticCursor): same
// grants, ports, fail levels, and final link state on shared random
// batches, across pow-of-two, non-pow-of-two, and m != w shapes.
func TestGoldenArithmeticCursorBitIdentical(t *testing.T) {
	shapes := [][3]int{{2, 4, 4}, {3, 4, 2}, {2, 6, 3}}
	for _, info := range List() {
		for _, dims := range shapes {
			tab := topology.MustNew(dims[0], dims[1], dims[2])
			ari := tab.WithArithmeticCursor()
			reqs := randomBatch(tab, rand.New(rand.NewSource(77)), 60)
			stTab, stAri := linkstate.New(tab), linkstate.New(ari)
			want := MustParse(info.Family).Schedule(stTab, reqs)
			got := MustParse(info.Family).Schedule(stAri, reqs)
			sameResult(t, info.Family+"/arithmetic-cursor", got, want)
			if !stTab.Equal(stAri) {
				t.Fatalf("%s on FT%v: final link state diverges between table and arithmetic cursors", info.Family, dims)
			}
		}
	}
}

// TestGoldenScheduleInto proves the Engine adapter's Scratch path is
// also bit-identical (and shares state with the plain path).
func TestGoldenScheduleInto(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	reqs := randomBatch(tree, rand.New(rand.NewSource(5)), 60)
	for _, spec := range []string{"level-wise,rollback", "backtrack,depth=2", "optimal", "parallel,rollback,workers=4"} {
		stA, stB := linkstate.New(tree), linkstate.New(tree)
		a := MustParse(spec).Schedule(stA, reqs)
		b := MustParse(spec).ScheduleInto(stB, reqs, core.NewScratch())
		sameResult(t, spec+"/into", b, a)
		if !stA.Equal(stB) {
			t.Fatalf("%s: ScheduleInto link state diverges from Schedule", spec)
		}
	}
}

// TestParallelSmallEpochZeroAllocs guards the path a fabric epoch of one
// takes under a parallel engine: the engine picks its sequential core
// for a degenerate batch and runs it through the caller's Scratch, so
// the epoch allocates nothing once the scratch is warm.
func TestParallelSmallEpochZeroAllocs(t *testing.T) {
	tree := topology.MustNew(3, 8, 8)
	eng := MustParse("parallel,rollback")
	st, sc := linkstate.New(tree), core.NewScratch()
	reqs := []core.Request{{Src: 0, Dst: tree.Nodes() - 1}}
	eng.ScheduleInto(st, reqs, sc) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		st.Reset()
		eng.ScheduleInto(st, reqs, sc)
	})
	if allocs != 0 {
		t.Fatalf("1-request epoch under parallel,rollback allocated %.1f times, want 0", allocs)
	}
}
