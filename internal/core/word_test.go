package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/linkstate"
	"repro/internal/topology"
)

// wordVsVector is the word kernel's differential oracle: it schedules reqs
// on two identically prepared states — once on the word path (SweepWords,
// or scheduleOneFast under RequestMajor), once forced onto the Vector path
// by a no-op Trace hook, which changes no scheduling decision — and fails
// on any difference in outcomes, counters, grant count, final link state
// or load counters. mkOpts is called once per path so that each gets its
// own, identically seeded, Rand. With carry set the batch is scheduled the
// way the fabric does: one Scratch, a first epoch, every other granted
// route released, then the same batch again over what is still held.
func wordVsVector(t testing.TB, label string, tree *topology.Tree, mkOpts func() Options, prep func(*linkstate.State), carry bool, reqs []Request) {
	t.Helper()
	run := func(vector bool) (*Result, *linkstate.State) {
		st := linkstate.New(tree)
		if prep != nil {
			prep(st)
		}
		opts := mkOpts()
		if vector {
			opts.Trace = func(TraceEvent) {}
		}
		s := &LevelWise{Opts: opts}
		if !carry {
			return s.Schedule(st, reqs), st
		}
		sc := NewScratch()
		first := s.ScheduleInto(st, reqs, sc)
		kept := false
		for _, o := range first.Outcomes {
			if o.Granted && o.H > 0 {
				if kept = !kept; !kept {
					ReleaseRoute(st, o.Src, o.Dst, o.Ports, nil)
				}
			}
		}
		return s.ScheduleInto(st, reqs, sc), st
	}
	got, stWord := run(false)
	want, stVec := run(true)
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
// serves (orders, rollback, both traversals), every tree form (power-of-two
// and general m and w, two and three levels, the arithmetic view), every
// kind of starting state (idle, load-tracked, fault-masked, carrying held
// circuits) and the degenerate batch sizes.
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
		{"request-major", func() Options { return Options{Traversal: RequestMajor} }},
		{"request-major/rollback", func() Options { return Options{Traversal: RequestMajor, Rollback: true} }},
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
}

// TestWordPathRejectsBadEndpointBeforeAllocating: an out-of-range endpoint
// anywhere in the batch panics in the prep pass, before the sweep has
// changed a single link-state bit — valid requests ahead of it included.
func TestWordPathRejectsBadEndpointBeforeAllocating(t *testing.T) {
	for _, tree := range []*topology.Tree{
		topology.MustNew(3, 4, 4),
		topology.MustNew(3, 6, 3),
		topology.MustNew(3, 4, 4).WithArithmeticCursor(),
	} {
		n := tree.Nodes()
		for _, bad := range []Request{{Src: 0, Dst: n}, {Src: n, Dst: 0}, {Src: -1, Dst: 1}, {Src: 1, Dst: -1}} {
			st := linkstate.New(tree)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: request %+v did not panic", tree, bad)
					}
				}()
				NewLevelWise().Schedule(st, []Request{{Src: 0, Dst: n - 1}, {Src: 1, Dst: n - 2}, bad})
			}()
			if !st.Equal(linkstate.New(tree)) {
				t.Fatalf("%s: request %+v panicked after link state had changed", tree, bad)
			}
		}
	}
}
