package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/linkstate"
	"repro/internal/topology"
)

// refPick is each policy's plain definition, the reference Scorer.Pick is
// held to: the free ports by a per-channel Available loop, the scores by
// freeCount on the parent rows, the best score taken with ties low, and
// first-fit at the top link level for the scored policies. It returns -1
// when no port is free; a random pick draws from rng exactly when one is.
func refPick(st *linkstate.State, k Scorer, h, sigma, delta int) int {
	tree := st.Tree()
	var free []int
	for p := 0; p < tree.Parents(); p++ {
		if st.Available(linkstate.Up, h, sigma, p) && st.Available(linkstate.Down, h, delta, p) {
			free = append(free, p)
		}
	}
	if len(free) == 0 {
		return -1
	}
	if k.ReuseCost == 0 && k.Policy == RandomFit {
		return free[k.Rand.Intn(len(free))]
	}
	if h+1 == tree.LinkLevels() || k.ReuseCost == 0 && k.Policy != LeastLoaded {
		return free[0]
	}
	best, bestScore := -1, -1
	for _, p := range free {
		up := tree.UpParent(h, sigma, p)
		score := freeCount(st, linkstate.Up, h+1, up) // least-loaded: free capacity above
		if k.ReuseCost > 0 {
			w := tree.Parents()
			down := tree.UpParent(h, delta, p)
			score = (w - freeCount(st, linkstate.Up, h+1, up)) + (w - freeCount(st, linkstate.Down, h+1, down))
			if score > k.ReuseCost {
				score = k.ReuseCost
			}
		}
		if score > bestScore {
			best, bestScore = p, score
		}
	}
	return best
}

// freeCount counts the available channels of one switch, port by port.
func freeCount(st *linkstate.State, d linkstate.Direction, h, idx int) int {
	n := 0
	for p := 0; p < st.Tree().Parents(); p++ {
		if st.Available(d, h, idx, p) {
			n++
		}
	}
	return n
}

// TestScorerMatchesReference holds Scorer.Pick to refPick for every
// policy — first-fit, seeded random, least-loaded and reuse-cost at three
// caps — at every level and (σ, δ) switch pair of every tree form the
// word kernel's reference test covers, on idle, faulted and load-tracked
// states carrying held circuits. Each pick is made from the AND-ed word,
// as SweepWords passes it; a random pick must leave its Rand where the
// reference leaves its own.
func TestScorerMatchesReference(t *testing.T) {
	var trees []*topology.Tree
	for _, sh := range wordShapes {
		tree := topology.MustNew(sh.l, sh.m, sh.w)
		if sh.arith {
			tree = tree.WithArithmeticCursor()
		}
		trees = append(trees, tree)
	}
	scorers := []struct {
		name string
		k    Scorer
	}{
		{"first-fit", Scorer{}},
		{"random", Scorer{Policy: RandomFit}},
		{"least-loaded", Scorer{Policy: LeastLoaded}},
		{"reuse-cost=1", Scorer{ReuseCost: 1}},
		{"reuse-cost=2", Scorer{ReuseCost: 2}},
		{"reuse-cost=4", Scorer{ReuseCost: 4}},
	}
	// loaded holds about half of an oversubscribed random batch, counted on
	// the load-tracking state, so that parents differ in what they carry.
	loaded := func(st *linkstate.State) {
		st.TrackLoad()
		tree := st.Tree()
		rng := rand.New(rand.NewSource(3))
		reqs := make([]Request, tree.Nodes())
		for i := range reqs {
			reqs[i] = Request{Src: rng.Intn(tree.Nodes()), Dst: rng.Intn(tree.Nodes())}
		}
		res := (&LevelWise{Opts: Options{Rollback: true}}).Schedule(st, reqs)
		for i, o := range res.Outcomes {
			if o.Granted && i%2 == 0 {
				ReleaseRoute(st, o.Src, o.Dst, o.Ports, nil)
			}
		}
	}
	states := []struct {
		name string
		prep func(*linkstate.State)
	}{
		{"idle", nil},
		{"faulted", func(st *linkstate.State) { failTenth(st); loaded(st) }},
		{"track-load", loaded},
	}
	for _, tree := range trees {
		for _, s := range states {
			st := linkstate.New(tree)
			if s.prep != nil {
				s.prep(st)
			}
			for _, sc := range scorers {
				k, ref := sc.k, sc.k
				k.Rand, ref.Rand = rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
				for h := 0; h < tree.LinkLevels(); h++ {
					for sigma := 0; sigma < tree.SwitchesAt(h); sigma++ {
						for delta := 0; delta < tree.SwitchesAt(h); delta++ {
							avail := st.AvailBothWord(h, sigma, delta)
							want := refPick(st, ref, h, sigma, delta)
							if got := k.Pick(st, h, sigma, delta, avail); got != want {
								t.Fatalf("%s %s %s: h=%d σ=%d δ=%d avail=%b: Pick = %d, reference %d",
									tree, s.name, sc.name, h, sigma, delta, avail, got, want)
							}
						}
					}
				}
				if k.Rand.Int63() != ref.Rand.Int63() {
					t.Fatalf("%s %s %s: Pick drew a different number of times from the reference", tree, s.name, sc.name)
				}
			}
		}
	}
}

// TestPickPortReuse pins the reconfiguration-cost score: the port whose
// parents carry the most held channels wins, the cap saturates the
// score, and saturated ties break low (first-fit-like).
func TestPickPortReuse(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	st := linkstate.New(tree)
	avail := uint64(1)<<tree.Parents() - 1
	// Load port 2's σ-side parent with two held channels and port 1's
	// with one; ports 0 and 3 lead to idle parents.
	p2 := tree.UpParent(0, 0, 2)
	p1 := tree.UpParent(0, 0, 1)
	mustAllocate(st, linkstate.Up, 1, p2, 0)
	mustAllocate(st, linkstate.Up, 1, p2, 1)
	mustAllocate(st, linkstate.Up, 1, p1, 0)
	if got := (Scorer{ReuseCost: 8}).Pick(st, 0, 0, 0, avail); got != 2 {
		t.Fatalf("uncapped pick = %d; want port 2 (most loaded parent)", got)
	}
	// Cap 1 saturates both loaded parents to the same score: tie breaks
	// low, so port 1 wins.
	if got := (Scorer{ReuseCost: 1}).Pick(st, 0, 0, 0, avail); got != 1 {
		t.Fatalf("capped pick = %d; want port 1 (saturated tie breaks low)", got)
	}
	// Top link level has no parent rows: degrade to first-fit.
	if got := (Scorer{ReuseCost: 8}).Pick(st, tree.LinkLevels()-1, 0, 0, avail); got != 0 {
		t.Fatalf("top-level pick = %d; want first-fit port 0", got)
	}
	// On an idle fabric every score is zero: first-fit again.
	if got := (Scorer{ReuseCost: 8}).Pick(linkstate.New(tree), 0, 0, 0, avail); got != 0 {
		t.Fatalf("idle pick = %d; want first-fit port 0", got)
	}
}

// TestLevelPipelineTakesFirstFitOnly: a random or least-loaded batch large
// enough for the level pipeline never posts to the helper, even with the
// helper awake on a second CPU, and schedules the same at GOMAXPROCS 1
// and 2 — the sequential SweepWords both times.
func TestLevelPipelineTakesFirstFitOnly(t *testing.T) {
	tree := topology.MustNew(3, 16, 16)
	reqs := permBatch(tree, 11)
	if !pipelines(linkstate.New(tree), len(reqs)) {
		t.Fatalf("%d requests on %s do not have the pipeline's shape", len(reqs), tree)
	}
	for _, v := range []struct {
		name string
		opts func() Options
	}{
		{"random", func() Options { return Options{Policy: RandomFit, Rand: rand.New(rand.NewSource(5))} }},
		{"least-loaded", func() Options { return Options{Policy: LeastLoaded, Rollback: true} }},
	} {
		run := func(procs int) *Result {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			if procs > 1 {
				wakeHelper()
			}
			sc := NewScratch()
			res := (&LevelWise{Opts: v.opts()}).ScheduleInto(linkstate.New(tree), reqs, sc)
			if s := sc.pipe.state.Load(); s != 0 {
				t.Fatalf("%s at GOMAXPROCS %d: the batch posted to the helper (job state %d)", v.name, procs, s)
			}
			return res
		}
		one, two := run(1), run(2)
		if !reflect.DeepEqual(one.Outcomes, two.Outcomes) || one.Ops != two.Ops {
			t.Fatalf("%s: GOMAXPROCS 1 and 2 schedule differently", v.name)
		}
		if one.Granted == 0 {
			t.Fatalf("%s granted nothing", v.name)
		}
	}
}

// scorerVariants are the oracle's variants for the policies the Scorer
// adds to the word kernel, each with and without rollback.
func scorerVariants() []wordVariant {
	var vs []wordVariant
	for _, rollback := range []bool{false, true} {
		for _, v := range []wordVariant{
			{"policy=random", func() Options { return Options{Policy: RandomFit, Rand: rand.New(rand.NewSource(13))} }},
			{"least-loaded", func() Options { return Options{Policy: LeastLoaded} }},
			{"reuse-cost=2", func() Options { return Options{ReuseCost: 2} }},
			{"reuse-cost=4", func() Options { return Options{ReuseCost: 4} }},
		} {
			if rollback {
				opts := v.opts
				v.name += "/rollback"
				v.opts = func() Options { o := opts(); o.Rollback = true; return o }
			}
			vs = append(vs, v)
		}
	}
	return vs
}
