package main

// The churn workload (EXPERIMENTS.md E20): a connection population with
// arrivals and exponential-ish lifetimes, served epoch by epoch under
// three disciplines over identical offered load —
//
//   batch-replay        every epoch tears down all held circuits and
//                       re-schedules survivors + arrivals from scratch
//                       (what a non-incremental batch scheduler must do
//                       to serve a churning population; survivors whose
//                       re-admission fails are dropped)
//   incremental         delta epochs: held grants carry forward in the
//                       link state, only real departures are swept
//   incremental+reuse   delta epochs with the reconfiguration-cost-
//                       aware port score (core.Options.ReuseCost)
//
// Reported per discipline: schedulability of fresh arrivals and route
// churn per epoch — routes physically torn down plus routes
// established. Replay is scored honestly: a survivor re-granted its
// identical route counts as zero churn; only route moves, drops, and
// real arrivals/departures count. Nothing is timed, so the table is a
// pure function of the seed; what an incremental epoch costs is
// core.delta_ns_per_req in bench/.

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

type churnBenchConfig struct {
	Levels, Children, Parents int
	Rate                      int     // fresh arrivals per epoch
	Life                      float64 // mean circuit lifetime, epochs
	Epochs                    int
	Reuse                     int // reuse-cost cap K for the third discipline
	Seed                      int64
}

type churnArrival struct {
	src, dst int
	life     int // lifetime in epochs if granted
}

// churnResult is one discipline's scorecard.
type churnResult struct {
	Discipline         string
	Offered            int
	Granted            int
	Schedulability     float64
	TornRoutes         int
	EstablishedRoutes  int
	RouteChurnPerEpoch float64
	SurvivorsDropped   int
}

// churnSchedule precomputes the offered workload so every discipline
// sees the same arrivals with the same lifetimes.
func churnSchedule(tree *topology.Tree, cfg churnBenchConfig) [][]churnArrival {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := tree.Nodes()
	sched := make([][]churnArrival, cfg.Epochs)
	for e := range sched {
		arr := make([]churnArrival, cfg.Rate)
		for i := range arr {
			life := int(rng.ExpFloat64()*cfg.Life) + 1
			arr[i] = churnArrival{src: rng.Intn(n), dst: rng.Intn(n), life: life}
		}
		sched[e] = arr
	}
	return sched
}

type churnCircuit struct {
	src, dst int
	ports    []int
	expires  int // epoch at which the circuit departs
}

func samePorts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runChurnReplay serves the schedule batch-replay style: each epoch the
// whole held set is torn down and re-scheduled together with the fresh
// arrivals against an empty-again link state.
func runChurnReplay(tree *topology.Tree, sched [][]churnArrival) churnResult {
	lw := &core.LevelWise{Opts: core.Options{Rollback: true}}
	st := linkstate.New(tree)
	sc := core.NewScratch()
	res := churnResult{Discipline: "batch-replay"}
	var held []churnCircuit
	var reqs []core.Request
	for epoch, arrivals := range sched {
		// Departures leave; everything else is torn down for the rebuild.
		survivors := held[:0]
		for _, c := range held {
			if c.expires <= epoch {
				if len(c.ports) > 0 {
					res.TornRoutes++
				}
				core.ReleaseRoute(st, c.src, c.dst, c.ports, nil)
				continue
			}
			survivors = append(survivors, c)
		}
		held = survivors
		for i := range held {
			core.ReleaseRoute(st, held[i].src, held[i].dst, held[i].ports, nil)
		}
		reqs = reqs[:0]
		for i := range held {
			reqs = append(reqs, core.Request{Src: held[i].src, Dst: held[i].dst})
		}
		for _, a := range arrivals {
			reqs = append(reqs, core.Request{Src: a.src, Dst: a.dst})
		}
		res.Offered += len(arrivals)
		out := lw.ScheduleInto(st, reqs, sc)
		// Survivors first (same order): moved or dropped routes are churn,
		// identical re-grants are free.
		next := held[:0]
		for i := range held {
			o := &out.Outcomes[i]
			if !o.Granted {
				if len(held[i].ports) > 0 {
					res.TornRoutes++
				}
				res.SurvivorsDropped++
				continue
			}
			if !samePorts(held[i].ports, o.Ports) {
				if len(held[i].ports) > 0 {
					res.TornRoutes++
				}
				if len(o.Ports) > 0 {
					res.EstablishedRoutes++
				}
				held[i].ports = append(held[i].ports[:0], o.Ports...)
			}
			next = append(next, held[i])
		}
		nsurv := len(held)
		held = next
		for i, a := range arrivals {
			o := &out.Outcomes[nsurv+i]
			if !o.Granted {
				continue
			}
			res.Granted++
			if len(o.Ports) > 0 {
				res.EstablishedRoutes++
			}
			held = append(held, churnCircuit{src: a.src, dst: a.dst,
				ports: append([]int(nil), o.Ports...), expires: epoch + a.life})
		}
	}
	finishChurn(&res, len(sched))
	return res
}

// runChurnIncremental serves the schedule with delta epochs: held routes
// stay allocated, departures and arrivals flow through
// ScheduleDeltaInto, and reuseCost > 0 adds the cost-aware port score.
func runChurnIncremental(tree *topology.Tree, sched [][]churnArrival, reuseCost int) churnResult {
	lw := &core.LevelWise{Opts: core.Options{Rollback: true, Incremental: true, ReuseCost: reuseCost}}
	st := linkstate.New(tree)
	sc := core.NewScratch()
	name := "incremental"
	if reuseCost > 0 {
		name = fmt.Sprintf("incremental+reuse-cost=%d", reuseCost)
	}
	res := churnResult{Discipline: name}
	var held []churnCircuit
	var reqs []core.Request
	var deps []core.Departure
	for epoch, arrivals := range sched {
		deps = deps[:0]
		survivors := held[:0]
		for _, c := range held {
			if c.expires <= epoch {
				deps = append(deps, core.Departure{Src: c.src, Dst: c.dst, Ports: c.ports})
				continue
			}
			survivors = append(survivors, c)
		}
		held = survivors
		reqs = reqs[:0]
		for _, a := range arrivals {
			reqs = append(reqs, core.Request{Src: a.src, Dst: a.dst})
		}
		res.Offered += len(arrivals)
		out := lw.ScheduleDeltaInto(st, reqs, deps, sc)
		res.TornRoutes += out.Torn
		for i, a := range arrivals {
			o := &out.Outcomes[i]
			if !o.Granted {
				continue
			}
			res.Granted++
			if len(o.Ports) > 0 {
				res.EstablishedRoutes++
			}
			held = append(held, churnCircuit{src: a.src, dst: a.dst,
				ports: append([]int(nil), o.Ports...), expires: epoch + a.life})
		}
	}
	finishChurn(&res, len(sched))
	return res
}

func finishChurn(r *churnResult, epochs int) {
	if r.Offered > 0 {
		r.Schedulability = float64(r.Granted) / float64(r.Offered)
	}
	if epochs > 0 {
		r.RouteChurnPerEpoch = float64(r.TornRoutes+r.EstablishedRoutes) / float64(epochs)
	}
}

// churnBench runs the three disciplines over one shared schedule and
// writes the comparison table.
func churnBench(w io.Writer, cfg churnBenchConfig) error {
	if cfg.Rate < 1 || cfg.Epochs < 1 || cfg.Life <= 0 {
		return fmt.Errorf("churn: need rate >= 1, epochs >= 1, life > 0 (got rate=%d epochs=%d life=%v)",
			cfg.Rate, cfg.Epochs, cfg.Life)
	}
	if cfg.Reuse < 0 {
		return fmt.Errorf("churn: negative reuse-cost %d", cfg.Reuse)
	}
	tree, err := topology.New(cfg.Levels, cfg.Children, cfg.Parents)
	if err != nil {
		return err
	}
	sched := churnSchedule(tree, cfg)
	results := []churnResult{runChurnReplay(tree, sched), runChurnIncremental(tree, sched, 0)}
	if cfg.Reuse > 0 {
		results = append(results, runChurnIncremental(tree, sched, cfg.Reuse))
	}

	fmt.Fprintf(w, "churn: FT(%d,%d,%d) rate=%d/epoch life=%.1f epochs=%d seed=%d\n\n",
		cfg.Levels, cfg.Children, cfg.Parents, cfg.Rate, cfg.Life, cfg.Epochs, cfg.Seed)
	fmt.Fprintf(w, "%-26s %8s %11s %11s %8s\n",
		"discipline", "admit%", "churn/epoch", "torn+estab", "dropped")
	for _, r := range results {
		fmt.Fprintf(w, "%-26s %7.1f%% %11.2f %5d+%-5d %8d\n",
			r.Discipline, 100*r.Schedulability,
			r.RouteChurnPerEpoch, r.TornRoutes, r.EstablishedRoutes, r.SurvivorsDropped)
	}
	if base, inc := results[0], results[1]; inc.RouteChurnPerEpoch > 0 {
		fmt.Fprintf(w, "\nroute-churn ratio (batch-replay / incremental): %.2fx\n",
			base.RouteChurnPerEpoch/inc.RouteChurnPerEpoch)
	}
	return nil
}
