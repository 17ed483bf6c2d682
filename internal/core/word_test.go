package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core/coretest"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// wordVsRef is the word kernel's differential oracle: it schedules reqs
// on a prepared state, once per way in ways (nil: as is), and holds each
// run to the reference Level-wise of internal/core/coretest — Figure 7 over
// []bool rows — run from the same prepared rows: outcomes, counters, grant
// count, final link state, load counters and occupancy gauge. mkOpts is
// called once per run, so that each gets its own, identically seeded,
// Rand. With carry set the batch is scheduled the way the fabric does: one
// Scratch, a first epoch, every other granted route released, then the
// same batch again over what is still held.
func wordVsRef(t testing.TB, label string, tree *topology.Tree, mkOpts func() Options, prep func(*linkstate.State), carry bool, reqs []Request, ways ...wordWay) {
	t.Helper()
	prepared := func() *linkstate.State {
		st := linkstate.New(tree)
		if prep != nil {
			prep(st)
		}
		return st
	}
	start := prepared()
	ref := coretest.New(tree)
	for h := range ref.Up {
		for idx := range ref.Up[h] {
			for p := range ref.Up[h][idx] {
				ref.Up[h][idx][p] = start.Available(linkstate.Up, h, idx, p)
				ref.Down[h][idx][p] = start.Available(linkstate.Down, h, idx, p)
			}
		}
	}
	pairs := make([][2]int, len(reqs))
	for i, r := range reqs {
		pairs[i] = [2]int{r.Src, r.Dst}
	}
	ropts := refOptions(mkOpts())
	var ops Counters // the last batch's, as core counts them
	schedule := func() []coretest.Outcome {
		steps, claims, released := ref.Steps, len(ref.Claims), ref.Released
		outs := ref.LevelWise(pairs, ropts)
		n := ref.Steps - steps
		ops = Counters{VectorReads: 2 * n, VectorANDs: n, PortPicks: n, Steps: n,
			Allocs: 2 * (len(ref.Claims) - claims), Releases: ref.Released - released}
		return outs
	}
	want := schedule()
	if carry {
		kept := false
		for i, o := range want {
			if o.Granted && o.H > 0 {
				if kept = !kept; !kept {
					refRelease(ref, reqs[i], o.Ports)
				}
			}
		}
		want = schedule()
	}
	// What the final state's load counters and occupancy gauge must read:
	// the prepared state's, plus every claim and less every release.
	upLoad, downLoad := start.LoadSnapshot()
	w := tree.Parents()
	for _, c := range ref.Claims {
		if upLoad != nil { // a load-tracking state
			upLoad[c[0]][c[1]*w+c[3]]++
			downLoad[c[0]][c[2]*w+c[3]]++
		}
	}
	occupancy := start.LiveOccupancy() + int64(2*len(ref.Claims)-ref.Released)

	if len(ways) == 0 {
		ways = []wordWay{{name: "as-is"}}
	}
	for _, way := range ways {
		func() {
			if way.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(way.procs))
			}
			st := prepared()
			s := &LevelWise{Opts: mkOpts()}
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
			got := schedule()
			if carry {
				kept := false
				for _, o := range got.Outcomes {
					if o.Granted && o.H > 0 {
						if kept = !kept; !kept {
							ReleaseRoute(st, o.Src, o.Dst, o.Ports, nil)
						}
					}
				}
				got = schedule()
			}
			sameAsRef(t, label+" "+way.name, got, ops, st, want, ref, upLoad, downLoad, occupancy)
		}()
	}
}

// refRelease returns the channels r's route holds on ref.
func refRelease(ref *coretest.State, r Request, ports []int) {
	sigma, _ := ref.Tree.NodeSwitch(r.Src)
	delta, _ := ref.Tree.NodeSwitch(r.Dst)
	for h, p := range ports {
		ref.Up[h][sigma][p], ref.Down[h][delta][p] = true, true
		ref.Released += 2
		sigma, delta = ref.Tree.UpParent(h, sigma, p), ref.Tree.UpParent(h, delta, p)
	}
}

// refOptions translates core's options for the reference.
func refOptions(o Options) coretest.Options {
	r := coretest.Options{
		Random:       o.Policy == RandomFit,
		LeastLoaded:  o.Policy == LeastLoaded,
		ReuseCost:    o.ReuseCost,
		Shuffle:      o.Order == ShuffledOrder,
		DeepestFirst: o.Order == DeepestFirst,
		RequestMajor: o.Traversal == RequestMajor,
		Rollback:     o.Rollback,
		Rand:         o.Rand,
	}
	if r.Rand == nil {
		r.Rand = rand.New(rand.NewSource(1)) // core's default source
	}
	return r
}

// sameAsRef fails unless the kernel's result and final state st equal the
// reference's outcomes want, counters ops and final rows ref, and, on a
// load-tracking state, the load counters and occupancy gauge expected.
func sameAsRef(t testing.TB, label string, got *Result, ops Counters, st *linkstate.State, want []coretest.Outcome, ref *coretest.State, upLoad, downLoad [][]uint64, occupancy int64) {
	t.Helper()
	if len(got.Outcomes) != len(want) || got.Total != len(want) {
		t.Fatalf("%s: %d outcomes (total %d), reference %d", label, len(got.Outcomes), got.Total, len(want))
	}
	granted := 0
	for i, o := range got.Outcomes {
		w := want[i]
		if o.H != w.H || o.Granted != w.Granted || o.FailLevel != w.FailLevel || o.FailDown || !slices.Equal(o.Ports, w.Ports) {
			t.Fatalf("%s: outcome %d diverges: kernel %+v, reference %+v", label, i, o, w)
		}
		if w.Granted {
			granted++
		}
	}
	if got.Granted != granted {
		t.Fatalf("%s: granted %d, reference %d", label, got.Granted, granted)
	}
	if got.Ops != ops {
		t.Fatalf("%s: counters diverge: kernel %+v, reference %+v", label, got.Ops, ops)
	}
	tree := st.Tree()
	w := tree.Parents()
	up, down := st.LoadSnapshot()
	for h := range ref.Up {
		for idx := range ref.Up[h] {
			for p := 0; p < w; p++ {
				if st.Available(linkstate.Up, h, idx, p) != ref.Up[h][idx][p] || st.Available(linkstate.Down, h, idx, p) != ref.Down[h][idx][p] {
					t.Fatalf("%s: final link state diverges from the reference at level %d switch %d port %d", label, h, idx, p)
				}
				if up != nil && (up[h][idx*w+p] != upLoad[h][idx*w+p] || down[h][idx*w+p] != downLoad[h][idx*w+p]) {
					t.Fatalf("%s: load counters diverge from the reference at level %d switch %d port %d", label, h, idx, p)
				}
			}
		}
	}
	if st.LoadTracking() && st.LiveOccupancy() != occupancy {
		t.Fatalf("%s: occupancy gauge %d, reference %d", label, st.LiveOccupancy(), occupancy)
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

// wordShape is one tree form: FT(l, m, w), in the table or arithmetic view.
type wordShape struct {
	l, m, w int
	arith   bool
}

// wordShapes are the tree forms the word kernel's reference test sweeps:
// power-of-two and general m and w, two and three levels, both views, and
// the widest rows topology.New builds (w = 64, port 63 at the word's top
// bit).
var wordShapes = []wordShape{
	{3, 8, 8, false}, {3, 4, 4, false}, {3, 4, 2, false}, {2, 6, 3, false},
	{3, 6, 3, false}, {3, 4, 6, false}, {3, 4, 4, true}, {3, 6, 3, true},
	{2, 4, 64, false},
}

// wordVariant is one set of scheduler options the oracle runs; opts is
// called once per run, so that each gets its own, identically seeded, Rand.
type wordVariant struct {
	name string
	opts func() Options
}

// TestWordKernelMatchesReference holds the Level-wise scheduler — the
// SweepWords kernel, one worklist per batch (level-major) or one per
// request (request-major), and the level pipeline — to the reference
// Level-wise of internal/core/coretest over every option it serves (both
// traversals, every order, rollback, every port policy and the reuse-cost
// score), every tree form (power-of-two and general m and w, two and three
// levels, the arithmetic view, w = 64), every kind of starting state
// (idle, load-tracked, fault-masked, carrying held circuits) and the
// degenerate batch sizes. Batches large enough for the level pipeline —
// permutations and oversubscribed random batches on three 4096-node trees,
// two and three link levels — run each of pipelineWays: stage B on the
// helper, stage B on the caller, and the sequential sweep at GOMAXPROCS 1.
func TestWordKernelMatchesReference(t *testing.T) {
	var variants []wordVariant
	for _, v := range append([]wordVariant{
		{"natural", func() Options { return Options{} }},
		{"natural/rollback", func() Options { return Options{Rollback: true} }},
		{"shuffled", func() Options { return Options{Order: ShuffledOrder, Rand: rand.New(rand.NewSource(5))} }},
		{"shuffled/rollback", func() Options {
			return Options{Order: ShuffledOrder, Rand: rand.New(rand.NewSource(5)), Rollback: true}
		}},
		{"deepest-first", func() Options { return Options{Order: DeepestFirst} }},
		{"deepest-first/rollback", func() Options { return Options{Order: DeepestFirst, Rollback: true} }},
	}, scorerVariants()...) {
		opts := v.opts
		variants = append(variants, wordVariant{"level-major/" + v.name, opts},
			wordVariant{"request-major/" + v.name, func() Options { o := opts(); o.Traversal = RequestMajor; return o }})
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
	for _, sh := range wordShapes {
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
					wordVsRef(t, label, tree, v.opts, s.prep, s.carry, full[:n])
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
					ways := pipelineWays
					if v.opts().Traversal == RequestMajor {
						ways = nil // never pipelined: one run is every run
					}
					wordVsRef(t, label, tree, v.opts, s.prep, s.carry, b.reqs, ways...)
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
