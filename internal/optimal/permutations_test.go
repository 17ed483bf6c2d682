package optimal

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// TestEveryPermutationSmallTrees runs every permutation of FT(2,2,2)'s 4
// nodes and FT(3,2,2)'s 8 (40 320 of them): w == m, so the tree is
// rearrangeable and optimal grants every request (E1's 100 % bound), and
// Level-wise, with and without rollback, yields a result core.Verify
// passes and never grants more than optimal.
func TestEveryPermutationSmallTrees(t *testing.T) {
	for _, c := range []struct {
		shape [3]int
		perms int
	}{{[3]int{2, 2, 2}, 24}, {[3]int{3, 2, 2}, 40320}} {
		t.Run(fmt.Sprintf("FT%v", c.shape), func(t *testing.T) {
			tree := topology.MustNew(c.shape[0], c.shape[1], c.shape[2])
			reqs := make([]core.Request, tree.Nodes())
			for i := range reqs {
				reqs[i] = core.Request{Src: i, Dst: i}
			}
			seen := 0
			var permute func(k int)
			permute = func(k int) { // every arrangement of the destinations from k on
				if k < len(reqs) {
					for i := k; i < len(reqs); i++ {
						reqs[k].Dst, reqs[i].Dst = reqs[i].Dst, reqs[k].Dst
						permute(k + 1)
						reqs[k].Dst, reqs[i].Dst = reqs[i].Dst, reqs[k].Dst
					}
					return
				}
				seen++
				opt := New().Schedule(linkstate.New(tree), reqs)
				if err := core.Verify(tree, opt); err != nil || opt.Granted != len(reqs) {
					t.Fatalf("%v: optimal granted %d of %d (%v)", reqs, opt.Granted, len(reqs), err)
				}
				for _, s := range []core.Scheduler{core.NewLevelWise(), &core.LevelWise{Opts: core.Options{Rollback: true}}} {
					res := s.Schedule(linkstate.New(tree), reqs)
					if err := core.Verify(tree, res); err != nil || res.Granted > opt.Granted {
						t.Fatalf("%v: %s granted %d, optimal %d (%v)", reqs, s.Name(), res.Granted, opt.Granted, err)
					}
				}
			}
			if permute(0); seen != c.perms {
				t.Fatalf("visited %d permutations, want %d", seen, c.perms)
			}
		})
	}
}
