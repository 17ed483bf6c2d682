package sched

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// FuzzParse holds the spec grammar to what its acceptance promises: no
// input makes Parse panic, and the engine of a spec it accepts schedules a
// seeded 64-request batch on FT(3,4,4) into a result core.Verify passes,
// whose routes — grants and any partial routes a no-rollback engine
// retained — release back to a fresh state.
func FuzzParse(f *testing.F) {
	for _, info := range List() {
		f.Add(info.Example)
	}
	for _, c := range parseErrorTexts() {
		f.Add(c.spec)
	}
	tree := topology.MustNew(3, 4, 4)
	rng := rand.New(rand.NewSource(1))
	reqs := make([]core.Request, 64)
	for i := range reqs {
		reqs[i] = core.Request{Src: rng.Intn(tree.Nodes()), Dst: rng.Intn(tree.Nodes())}
	}
	fresh := linkstate.New(tree)
	f.Fuzz(func(t *testing.T, spec string) {
		eng, err := Parse(spec)
		if err != nil {
			return
		}
		st := linkstate.New(tree)
		res := eng.Schedule(st, reqs)
		if err := core.Verify(tree, res); err != nil {
			t.Fatalf("%q (%s): %v", spec, eng.Name(), err)
		}
		for _, o := range res.Outcomes {
			core.ReleaseRoute(st, o.Src, o.Dst, o.Ports, nil)
		}
		if !st.Equal(fresh) {
			t.Fatalf("%q (%s): releasing every route leaves channels held", spec, eng.Name())
		}
	})
}
