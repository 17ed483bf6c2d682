package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/linkstate"
	"repro/internal/topology"
)

// wordVsVector is the word kernel's differential oracle: it schedules reqs
// on two identically prepared states — once on the word path (SweepWords
// or the level pipeline), once forced
// onto the Vector path by a no-op Trace hook, which changes no scheduling
// decision — and fails on any difference in outcomes, counters, grant
// count, final link state or load counters. mkOpts is called once per path
// so that each gets its own, identically seeded, Rand. With carry set the
// batch is scheduled the way the fabric does: one Scratch, a first epoch,
// every other granted route released, then the same batch again over what
// is still held. The word path runs once per way in ways (nil: as is).
func wordVsVector(t testing.TB, label string, tree *topology.Tree, mkOpts func() Options, prep func(*linkstate.State), carry bool, reqs []Request, ways ...wordWay) {
	t.Helper()
	run := func(vector bool, way wordWay) (*Result, *linkstate.State) {
		if way.procs > 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(way.procs))
		}
		st := linkstate.New(tree)
		if prep != nil {
			prep(st)
		}
		opts := mkOpts()
		if vector {
			opts.Trace = func(TraceEvent) {}
		}
		s := &LevelWise{Opts: opts}
		sc := NewScratch()
		schedule := func() *Result {
			if way.warm {
				wakeHelper()
			}
			sc.pipe.state.Store(0)
			res := s.scheduleInto(st, reqs, sc, way.inline)
			if sc.pipe.state.Load() == jobDone {
				helperServed.Add(1)
			}
			return res
		}
		first := schedule()
		if !carry {
			return first, st
		}
		kept := false
		for _, o := range first.Outcomes {
			if o.Granted && o.H > 0 {
				if kept = !kept; !kept {
					ReleaseRoute(st, o.Src, o.Dst, o.Ports, nil)
				}
			}
		}
		return schedule(), st
	}
	if len(ways) == 0 {
		ways = []wordWay{{name: "as-is"}}
	}
	want, stVec := run(true, wordWay{})
	for _, way := range ways {
		got, stWord := run(false, way)
		sameAsVector(t, label+" "+way.name, want, stVec, got, stWord)
	}
}

// wordWay is one way to run the word path: GOMAXPROCS set to procs (0:
// unchanged); with warm, the helper woken first, so that a batch the level
// pipeline takes finds it awake; with inline, such a batch run with both
// stages on the caller.
type wordWay struct {
	name   string
	procs  int
	warm   bool
	inline bool
}

// helperServed counts the word-path batches whose stage B the helper ran.
var helperServed atomic.Int64

// pipelineWays are the three ways a batch the level pipeline takes can
// run: stage B on the warm helper, both stages on the caller, and the
// sequential SweepWords at GOMAXPROCS 1.
var pipelineWays = []wordWay{
	{name: "helper", procs: max(2, runtime.GOMAXPROCS(0)), warm: true},
	{name: "no-helper", inline: true},
	{name: "gomaxprocs=1", procs: 1},
}

// sameAsVector fails unless the word path's result and final state equal
// the Vector path's.
func sameAsVector(t testing.TB, label string, want *Result, stVec *linkstate.State, got *Result, stWord *linkstate.State) {
	t.Helper()
	if !stWord.WordRows() {
		t.Fatalf("%s: expected single-word rows", label)
	}
	if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
		for i := range want.Outcomes {
			if !reflect.DeepEqual(got.Outcomes[i], want.Outcomes[i]) {
				t.Fatalf("%s: outcome %d diverges: word %+v, vector %+v", label, i, got.Outcomes[i], want.Outcomes[i])
			}
		}
		t.Fatalf("%s: outcomes diverge: word %d records, vector %d", label, len(got.Outcomes), len(want.Outcomes))
	}
	if got.Ops != want.Ops {
		t.Fatalf("%s: counters diverge: word %+v, vector %+v", label, got.Ops, want.Ops)
	}
	if got.Granted != want.Granted || got.Total != want.Total {
		t.Fatalf("%s: granted/total %d/%d on the word path, %d/%d on the vector path", label, got.Granted, got.Total, want.Granted, want.Total)
	}
	if !stWord.Equal(stVec) {
		t.Fatalf("%s: final link state diverges between word and vector paths", label)
	}
	wu, wd := stWord.LoadSnapshot()
	vu, vd := stVec.LoadSnapshot()
	if !reflect.DeepEqual(wu, vu) || !reflect.DeepEqual(wd, vd) {
		t.Fatalf("%s: per-channel load counters diverge between word and vector paths", label)
	}
	if w, v := stWord.LiveOccupancy(), stVec.LiveOccupancy(); w != v {
		t.Fatalf("%s: occupancy gauge %d on the word path, %d on the vector path", label, w, v)
	}
}

// failTenth takes about one channel in ten out of service, the same ones
// on every state it is applied to.
func failTenth(st *linkstate.State) {
	tree := st.Tree()
	rng := rand.New(rand.NewSource(7))
	for h := 0; h < tree.LinkLevels(); h++ {
		for idx := 0; idx < tree.SwitchesAt(h); idx++ {
			for p := 0; p < tree.Parents(); p++ {
				for _, d := range []linkstate.Direction{linkstate.Up, linkstate.Down} {
					if rng.Intn(10) == 0 {
						st.FailLink(d, h, idx, p)
					}
				}
			}
		}
	}
}

// TestWordFastPathMatchesVectorPath pins the single-word scheduling paths
// bit-identical to the Vector path over every option the word kernel
// serves (orders, rollback), every tree form (power-of-two
// and general m and w, two and three levels, the arithmetic view), every
// kind of starting state (idle, load-tracked, fault-masked, carrying held
// circuits) and the degenerate batch sizes. Batches large enough for the
// level pipeline — permutations and oversubscribed random batches on
// three 4096-node trees, two and three link levels — run each of
// pipelineWays: stage B on the helper, stage B on the caller, and the
// sequential sweep at GOMAXPROCS 1.
func TestWordFastPathMatchesVectorPath(t *testing.T) {
	type shape struct {
		l, m, w int
		arith   bool
	}
	shapes := []shape{
		{3, 8, 8, false}, {3, 4, 4, false}, {3, 4, 2, false}, {2, 6, 3, false},
		{3, 6, 3, false}, {3, 4, 6, false}, {3, 4, 4, true}, {3, 6, 3, true},
	}
	variants := []struct {
		name string
		opts func() Options
	}{
		{"level-major", func() Options { return Options{} }},
		{"level-major/rollback", func() Options { return Options{Rollback: true} }},
		{"shuffled", func() Options { return Options{Order: ShuffledOrder, Rand: rand.New(rand.NewSource(5))} }},
		{"shuffled/rollback", func() Options {
			return Options{Order: ShuffledOrder, Rand: rand.New(rand.NewSource(5)), Rollback: true}
		}},
		{"deepest-first", func() Options { return Options{Order: DeepestFirst} }},
		{"deepest-first/rollback", func() Options { return Options{Order: DeepestFirst, Rollback: true} }},
	}
	states := []struct {
		name  string
		prep  func(*linkstate.State)
		carry bool
	}{
		{"idle", nil, false},
		{"track-load", (*linkstate.State).TrackLoad, false},
		{"faulted", failTenth, false},
		{"carried", (*linkstate.State).TrackLoad, true},
	}
	for _, sh := range shapes {
		tree := topology.MustNew(sh.l, sh.m, sh.w)
		if sh.arith {
			tree = tree.WithArithmeticCursor()
		}
		rng := rand.New(rand.NewSource(31))
		// Oversubscribe so denials (and rollback) are exercised too.
		full := make([]Request, 3*tree.Nodes())
		for i := range full {
			full[i] = Request{Src: rng.Intn(tree.Nodes()), Dst: rng.Intn(tree.Nodes())}
		}
		for _, n := range []int{0, 1, 2, len(full)} {
			for _, v := range variants {
				for _, s := range states {
					label := fmt.Sprintf("FT(%d,%d,%d) arith=%v %s %s n=%d", sh.l, sh.m, sh.w, sh.arith, v.name, s.name, n)
					wordVsVector(t, label, tree, v.opts, s.prep, s.carry, full[:n])
				}
			}
		}
	}

	served := helperServed.Load()
	for _, sh := range [][3]int{{3, 16, 16}, {4, 8, 8}, {3, 16, 8}} {
		tree := topology.MustNew(sh[0], sh[1], sh[2])
		rng := rand.New(rand.NewSource(37))
		random := make([]Request, tree.Nodes())
		for i := range random {
			random[i] = Request{Src: rng.Intn(tree.Nodes()), Dst: rng.Intn(tree.Nodes())}
		}
		for _, b := range []struct {
			name string
			reqs []Request
		}{{"perm", permBatch(tree, 11)}, {"random", random}} {
			if !pipelines(linkstate.New(tree), len(b.reqs)) {
				t.Fatalf("FT(%d,%d,%d) %s: %d requests do not take the level pipeline", sh[0], sh[1], sh[2], b.name, len(b.reqs))
			}
			for _, v := range variants {
				for _, s := range states {
					label := fmt.Sprintf("FT(%d,%d,%d) %s %s %s", sh[0], sh[1], sh[2], b.name, v.name, s.name)
					wordVsVector(t, label, tree, v.opts, s.prep, s.carry, b.reqs, pipelineWays...)
				}
			}
		}
	}
	if runtime.NumCPU() >= 2 && helperServed.Load() == served {
		t.Errorf("the helper ran stage B of none of the pipelined batches")
	}
}

// TestWordPathRejectsBadEndpointBeforeAllocating: an out-of-range endpoint
// anywhere in the batch panics before the sweep — or the level pipeline's
// stage A — has changed a single link-state bit, valid requests ahead of
// it included.
func TestWordPathRejectsBadEndpointBeforeAllocating(t *testing.T) {
	for _, tree := range []*topology.Tree{
		topology.MustNew(3, 4, 4),
		topology.MustNew(3, 6, 3),
		topology.MustNew(3, 4, 4).WithArithmeticCursor(),
	} {
		n := tree.Nodes()
		for _, bad := range []Request{{Src: 0, Dst: n}, {Src: n, Dst: 0}, {Src: -1, Dst: 1}, {Src: 1, Dst: -1}} {
			// Three requests take the sequential sweep; pipelineMin of them
			// (on the table-view trees) the level pipeline.
			for _, size := range []int{3, pipelineMin} {
				reqs := make([]Request, size)
				for i := range reqs[:size-1] {
					reqs[i] = Request{Src: i % n, Dst: n - 1 - i%n}
				}
				reqs[size-1] = bad
				st := linkstate.New(tree)
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s: request %+v did not panic", tree, bad)
						}
					}()
					NewLevelWise().Schedule(st, reqs)
				}()
				if !st.Equal(linkstate.New(tree)) {
					t.Fatalf("%s: request %+v in a batch of %d panicked after link state had changed", tree, bad, size)
				}
				if helper.busy.Load() {
					t.Fatalf("%s: request %+v in a batch of %d left the helper held", tree, bad, size)
				}
			}
		}
	}
}
