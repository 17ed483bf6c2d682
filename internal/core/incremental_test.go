package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/linkstate"
	"repro/internal/topology"
)

// epochs splits a batch into fixed-size arrival epochs.
func epochs(reqs []Request, size int) [][]Request {
	var out [][]Request
	for len(reqs) > 0 {
		n := min(size, len(reqs))
		out = append(out, reqs[:n])
		reqs = reqs[n:]
	}
	return out
}

// TestIncrementalArrivalsOnlyGolden pins the bit-identity contract: over
// an arrivals-only workload (no departures), delta epochs must match
// plain ScheduleInto epoch for epoch — same grants, same ports, same fail
// levels, same final link state.
func TestIncrementalArrivalsOnlyGolden(t *testing.T) {
	for _, shape := range []struct{ l, m, w int }{{3, 4, 4}, {2, 8, 8}, {3, 8, 8}} {
		for _, rollback := range []bool{false, true} {
			t.Run(fmt.Sprintf("FT%dx%dx%d/rollback=%v", shape.l, shape.m, shape.w, rollback), func(t *testing.T) {
				tree := topology.MustNew(shape.l, shape.m, shape.w)
				s := &LevelWise{Opts: Options{Rollback: rollback}}
				stA, stB := linkstate.New(tree), linkstate.New(tree)
				scA, scB := NewScratch(), NewScratch()
				for e, arrivals := range epochs(permBatch(tree, 7), 16) {
					want := s.ScheduleInto(stA, arrivals, scA)
					got := s.ScheduleDeltaInto(stB, arrivals, nil, scB)
					if got.Granted != want.Granted {
						t.Fatalf("epoch %d: granted %d, want %d", e, got.Granted, want.Granted)
					}
					for i := range want.Outcomes {
						w, g := &want.Outcomes[i], &got.Outcomes[i]
						if w.Granted != g.Granted || w.FailLevel != g.FailLevel || fmt.Sprint(w.Ports) != fmt.Sprint(g.Ports) {
							t.Fatalf("epoch %d request %d: %+v, want %+v", e, i, g, w)
						}
					}
					if !stA.Equal(stB) {
						t.Fatalf("epoch %d: link states diverged", e)
					}
				}
			})
		}
	}
}

// TestScheduleDeltaReleasesToPristine grants a batch, then departs every
// granted circuit in one delta epoch with no arrivals: the link state
// must return exactly to pristine, with every teardown release counted.
func TestScheduleDeltaReleasesToPristine(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	s := &LevelWise{Opts: Options{Rollback: true}}
	st := linkstate.New(tree)
	sc := NewScratch()
	res := s.ScheduleDeltaInto(st, permBatch(tree, 3), nil, sc)
	var deps []Departure
	wantReleases := 0
	for _, o := range res.Outcomes {
		if !o.Granted {
			continue
		}
		deps = append(deps, Departure{Src: o.Src, Dst: o.Dst, Ports: append([]int(nil), o.Ports...)})
		wantReleases += 2 * len(o.Ports)
	}
	out := s.ScheduleDeltaInto(st, nil, deps, sc)
	if out.Ops.Releases != wantReleases {
		t.Fatalf("Ops.Releases = %d, want %d (two per held port)", out.Ops.Releases, wantReleases)
	}
	if !st.Equal(linkstate.New(tree)) {
		t.Fatalf("link state not pristine after departing every grant")
	}
}

// TestScheduleDeltaInterleavedVerifies runs a seeded arrival/departure
// churn sequence through the delta path and checks every epoch's grant
// set is conflict-free (Verify replays the routes against a fresh state)
// and that the fabric drains back to pristine at the end — for both the
// first-fit pick and the reuse-cost variant.
func TestScheduleDeltaInterleavedVerifies(t *testing.T) {
	for _, reuse := range []int{0, 4} {
		t.Run(fmt.Sprintf("reuse-cost=%d", reuse), func(t *testing.T) {
			tree := topology.MustNew(3, 4, 4)
			s := &LevelWise{Opts: Options{Rollback: true, ReuseCost: reuse}}
			st := linkstate.New(tree)
			sc := NewScratch()
			rng := rand.New(rand.NewSource(11))
			var held []Departure
			for epoch := 0; epoch < 40; epoch++ {
				// Depart a random third of the held circuits.
				var deps []Departure
				kept := held[:0]
				for _, d := range held {
					if rng.Intn(3) == 0 {
						deps = append(deps, d)
					} else {
						kept = append(kept, d)
					}
				}
				held = kept
				arrivals := make([]Request, 8)
				for i := range arrivals {
					arrivals[i] = Request{Src: rng.Intn(tree.Nodes()), Dst: rng.Intn(tree.Nodes())}
				}
				res := s.ScheduleDeltaInto(st, arrivals, deps, sc)
				if err := Verify(tree, res); err != nil {
					t.Fatalf("epoch %d: %v", epoch, err)
				}
				for _, o := range res.Outcomes {
					if o.Granted {
						held = append(held, Departure{Src: o.Src, Dst: o.Dst, Ports: append([]int(nil), o.Ports...)})
					}
				}
			}
			s.ScheduleDeltaInto(st, nil, held, sc)
			if !st.Equal(linkstate.New(tree)) {
				t.Fatalf("link state not pristine after final drain")
			}
		})
	}
}

// TestReleaseSurvivingSkipsFailed pins the fault interplay: a departure
// whose route crosses a failed channel releases only the surviving
// channels; the failed one stays masked and comes back (free) only
// through RepairLink.
func TestReleaseSurvivingSkipsFailed(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	s := &LevelWise{Opts: Options{Rollback: true}}
	st := linkstate.New(tree)
	sc := NewScratch()
	// Route a seed batch and copy the grants out (the Result aliases the
	// scratch, which the later delta calls reuse): dep is one full-depth
	// circuit, rest is everything else.
	res := s.ScheduleDeltaInto(st, permBatch(tree, 5), nil, sc)
	var dep Departure
	var rest []Departure
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if !o.Granted {
			continue
		}
		d := Departure{Src: o.Src, Dst: o.Dst, Ports: append([]int(nil), o.Ports...)}
		if dep.Ports == nil && o.H == tree.LinkLevels() {
			dep = d
		} else {
			rest = append(rest, d)
		}
	}
	if dep.Ports == nil {
		t.Fatal("no full-depth grant in seed batch")
	}
	// Fail the route's level-0 up channel, then depart the circuit.
	var c RouteCursor
	c.Start(tree, dep.Src, dep.Dst)
	sigma, port := c.Sigma(), dep.Ports[0]
	if st.FailLink(linkstate.Up, 0, sigma, port) {
		t.Fatal("failed channel was reported free; expected it allocated")
	}
	s.ScheduleDeltaInto(st, nil, []Departure{dep}, sc)
	if !st.Failed(linkstate.Up, 0, sigma, port) {
		t.Fatal("departure resurrected a failed channel")
	}
	if st.Available(linkstate.Up, 0, sigma, port) {
		t.Fatal("failed channel became available without a repair")
	}
	// Drain the rest and repair: now the state must be fully pristine.
	s.ScheduleDeltaInto(st, nil, rest, sc)
	st.RepairLink(linkstate.Up, 0, sigma, port)
	if !st.Equal(linkstate.New(tree)) {
		t.Fatal("link state not pristine after drain + repair")
	}
}
