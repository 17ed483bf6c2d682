package linkstate_test

// BlockedByMask's oracle lives in an external test package because the
// oracle is the scheduler itself: internal/core imports linkstate.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// TestBlockedByMaskMatchesLevelWise holds BlockedByMask to its definition
// for every pair of FT(2,4,4), FT(3,2,2), an m ≠ w tree FT(3,6,3) and a
// full-word-row tree FT(2,2,64), over seeded fault sets from sparse to
// dense: a fresh State with the same mask applied, scheduled by
// core.LevelWise first-fit, denies the pair exactly when BlockedByMask
// says so. The state asked carries random held circuits as well, which
// the verdict must ignore — it is about the mask alone.
func TestBlockedByMaskMatchesLevelWise(t *testing.T) {
	trees := []*topology.Tree{
		topology.MustNew(2, 4, 4), topology.MustNew(3, 2, 2),
		topology.MustNew(3, 6, 3), topology.MustNew(2, 2, 64),
	}
	lw := core.NewLevelWise()
	sc := core.NewScratch()
	for _, tree := range trees {
		blocked, clear := 0, 0
		for fi, p := range []float64{0.05, 0.3, 0.6, 0.9} {
			label := fmt.Sprintf("%s faults p=%.2f", tree, p)
			rng := rand.New(rand.NewSource(int64(7 + fi)))
			st, fresh := linkstate.New(tree), linkstate.New(tree)
			st.TrackLoad()
			holdRandomRoutes(st, rng, tree.Nodes())
			for h := 0; h < tree.LinkLevels(); h++ {
				for idx := 0; idx < tree.SwitchesAt(h); idx++ {
					for port := 0; port < tree.Parents(); port++ {
						for _, d := range []linkstate.Direction{linkstate.Up, linkstate.Down} {
							if rng.Float64() < p {
								st.FailLink(d, h, idx, port)
								fresh.FailLink(d, h, idx, port)
							}
						}
					}
				}
			}
			for src := 0; src < tree.Nodes(); src++ {
				for dst := 0; dst < tree.Nodes(); dst++ {
					fresh.Reset() // every circuit released, the mask kept
					res := lw.ScheduleInto(fresh, []core.Request{{Src: src, Dst: dst}}, sc)
					want := !res.Outcomes[0].Granted
					if got := st.BlockedByMask(src, dst); got != want {
						t.Fatalf("%s: BlockedByMask(%d, %d) = %v, first-fit on the mask alone denies: %v", label, src, dst, got, want)
					}
					if want {
						blocked++
					} else {
						clear++
					}
				}
			}
		}
		if blocked == 0 || clear == 0 {
			t.Fatalf("%s: %d pairs blocked by the mask and %d not, want both kinds", tree, blocked, clear)
		}
	}
	if linkstate.New(trees[0]).BlockedByMask(0, trees[0].Nodes()-1) {
		t.Fatal("a state that never had a fault reports a pair blocked by its mask")
	}
}

// holdRandomRoutes allocates up to n random routes with random ports.
func holdRandomRoutes(st *linkstate.State, rng *rand.Rand, n int) {
	tree := st.Tree()
	for i := 0; i < n; i++ {
		src, dst := rng.Intn(tree.Nodes()), rng.Intn(tree.Nodes())
		ports := make([]int, tree.AncestorLevel(src, dst))
		for h := range ports {
			ports[h] = rng.Intn(tree.Parents())
		}
		_ = st.AllocatePath(src, dst, ports) // a route that collides is skipped
	}
}
