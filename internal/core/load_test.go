package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/linkstate"
	"repro/internal/topology"
)

// TestLoadTrackingHoldsUnderEveryMutation is the load counters' property
// test: a seeded history of everything that changes a tracked state —
// batch and delta epochs (with and without rollback, so denied requests
// both roll back inside the sweep and leave partial routes to release
// later), path releases, faults revoking the routes they cross, repairs,
// resets — and after every step the gauge equals the popcount truth and
// the cumulative counters equal two per port ever picked.
func TestLoadTrackingHoldsUnderEveryMutation(t *testing.T) {
	type held struct {
		src, dst int
		ports    []int
		whole    bool // a granted route; otherwise a denied request's retained prefix
	}
	trees := []*topology.Tree{
		topology.MustNew(3, 4, 4), topology.MustNew(3, 8, 8), topology.MustNew(3, 6, 3),
		topology.MustNew(2, 6, 3), topology.MustNew(3, 4, 4).WithArithmeticCursor(),
	}
	for ti, tree := range trees {
		for _, rollback := range []bool{false, true} {
			label := fmt.Sprintf("%s arith=%v rollback=%v", tree, ti == len(trees)-1, rollback)
			rng := rand.New(rand.NewSource(int64(17 + ti)))
			st := linkstate.New(tree)
			st.TrackLoad()
			lw := &LevelWise{Opts: Options{Rollback: rollback, Incremental: true}}
			sc := NewScratch()
			var routes []held
			var picked uint64

			check := func(step int, what string) {
				t.Helper()
				if occ, want := st.LiveOccupancy(), int64(st.OccupiedCount()); occ != want {
					t.Fatalf("%s step %d (%s): gauge %d, OccupiedCount %d", label, step, what, occ, want)
				}
				if got := st.TotalAllocs(); got != picked {
					t.Fatalf("%s step %d (%s): TotalAllocs %d, want %d (two per port picked)", label, step, what, got, picked)
				}
			}
			batch := func() []Request {
				reqs := make([]Request, 1+rng.Intn(2*tree.Nodes()))
				for i := range reqs {
					reqs[i] = Request{Src: rng.Intn(tree.Nodes()), Dst: rng.Intn(tree.Nodes())}
				}
				return reqs
			}
			keep := func(res *Result) {
				picked += uint64(res.Ops.Allocs)
				for _, o := range res.Outcomes {
					if len(o.Ports) > 0 {
						routes = append(routes, held{o.Src, o.Dst, append([]int(nil), o.Ports...), o.Granted})
					}
				}
			}
			// drop releases route i the way its kind is released on a state
			// in its condition, and forgets it.
			healthy, faulted := 0, 0
			drop := func(i int) {
				r := routes[i]
				switch {
				case st.FailedCount() > 0:
					faulted++
					ReleaseSurviving(st, r.src, r.dst, r.ports, nil)
				case r.whole:
					healthy++
					if err := st.ReleasePath(r.src, r.dst, r.ports); err != nil {
						t.Fatalf("%s: ReleasePath(%+v): %v", label, r, err)
					}
				default:
					healthy++
					ReleaseRoute(st, r.src, r.dst, r.ports, nil)
				}
				routes[i] = routes[len(routes)-1]
				routes = routes[:len(routes)-1]
			}
			crosses := func(r held, d linkstate.Direction, h, idx, port int) bool {
				var cur RouteCursor
				cur.Start(tree, r.src, r.dst)
				hit := false
				cur.Walk(r.ports, func(lvl, sigma, delta, p int) {
					at := sigma
					if d == linkstate.Down {
						at = delta
					}
					hit = hit || (lvl == h && at == idx && p == port)
				})
				return hit
			}
			type channel struct {
				d            linkstate.Direction
				h, idx, port int
			}
			var failed []channel

			for step := 0; step < 400; step++ {
				switch op := rng.Intn(16); {
				case op < 4:
					keep(lw.ScheduleInto(st, batch(), sc))
					check(step, "ScheduleInto")
				case op < 7:
					var deps []Departure
					for n := rng.Intn(8); n > 0 && len(routes) > 0; n-- {
						i := rng.Intn(len(routes))
						deps = append(deps, Departure{routes[i].src, routes[i].dst, routes[i].ports})
						routes[i] = routes[len(routes)-1]
						routes = routes[:len(routes)-1]
					}
					keep(lw.ScheduleDeltaInto(st, batch(), deps, sc))
					check(step, "ScheduleDeltaInto")
				case op < 12:
					for n := rng.Intn(32); n > 0 && len(routes) > 0; n-- {
						drop(rng.Intn(len(routes)))
						check(step, "release")
					}
				case op < 13:
					c := channel{linkstate.Direction(rng.Intn(2)), rng.Intn(tree.LinkLevels()), 0, rng.Intn(tree.Parents())}
					c.idx = rng.Intn(tree.SwitchesAt(c.h))
					if !st.Failed(c.d, c.h, c.idx, c.port) {
						st.FailLink(c.d, c.h, c.idx, c.port)
						failed = append(failed, c)
						check(step, "FailLink")
						// What the fabric does with a route a fault crosses.
						for i := len(routes) - 1; i >= 0; i-- {
							if crosses(routes[i], c.d, c.h, c.idx, c.port) {
								drop(i)
								check(step, "revoke")
							}
						}
					}
				case op < 15:
					if len(failed) > 0 {
						i := rng.Intn(len(failed))
						c := failed[i]
						st.RepairLink(c.d, c.h, c.idx, c.port)
						failed[i] = failed[len(failed)-1]
						failed = failed[:len(failed)-1]
						check(step, "RepairLink")
					}
				default:
					if rng.Intn(8) == 0 {
						st.Reset()
						routes = routes[:0]
						check(step, "Reset")
					}
				}
			}
			if picked == 0 || healthy == 0 || faulted == 0 {
				t.Fatalf("%s: the history picked %d ports, released %d routes on a healthy state and %d on a faulted one", label, picked/2, healthy, faulted)
			}
		}
	}
}
