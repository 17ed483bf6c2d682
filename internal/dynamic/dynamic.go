// Package dynamic simulates long-lived connections arriving and departing
// over time — the deployment scenario the paper motivates ("This technique
// is especially beneficial to setup long-lived connections"). Connections
// arrive as a Poisson process, hold exponentially distributed times, and
// are admitted by a scheduler against the live link state; a connection
// that cannot be routed at arrival is blocked and lost. The figure of
// merit is the blocking probability under offered load (extension E4).
//
// This package is the single-threaded simulation of that scenario on
// virtual time. Its serving-path counterpart is internal/fabric, which
// admits the same churn workload from real concurrent clients (see
// bench/'s fabric_churn workload and examples/dynamic_connections); both retire
// held circuits oldest-first and treat a blocked circuit as lost.
package dynamic

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// Config parameterizes one churn simulation.
type Config struct {
	Tree *topology.Tree
	// Scheduler admits each arrival (as a single-request batch against
	// the persistent link state). Schedulers that retain a failed
	// request's partial allocations are safe here: Run releases retained
	// ports after each blocked arrival, since a blocked connection holds
	// nothing.
	Scheduler core.Scheduler
	// ArrivalRate is the expected number of connection arrivals per cycle.
	ArrivalRate float64
	// MeanHold is the expected connection lifetime in cycles.
	MeanHold float64
	// Duration is the simulated horizon in cycles.
	Duration des.Time
	// WarmUp discards statistics before this time (steady-state measure).
	WarmUp des.Time
	// Seed drives arrivals, endpoints, and holding times.
	Seed int64
}

func (c Config) validate() error {
	if c.Tree == nil {
		return fmt.Errorf("dynamic: nil tree")
	}
	if c.Scheduler == nil {
		return fmt.Errorf("dynamic: nil scheduler")
	}
	if c.ArrivalRate <= 0 {
		return fmt.Errorf("dynamic: arrival rate %v, need > 0", c.ArrivalRate)
	}
	if c.MeanHold <= 0 {
		return fmt.Errorf("dynamic: mean hold %v, need > 0", c.MeanHold)
	}
	if c.Duration == 0 {
		return fmt.Errorf("dynamic: zero duration")
	}
	if c.WarmUp >= c.Duration {
		return fmt.Errorf("dynamic: warm-up %d >= duration %d", c.WarmUp, c.Duration)
	}
	return nil
}

// Stats summarizes a churn run (post-warm-up unless noted).
type Stats struct {
	Offered  int // arrivals after warm-up
	Accepted int
	Blocked  int
	// PeakActive is the maximum simultaneously held connections (whole
	// run).
	PeakActive int
	// MeanActive is the arrival-sampled mean of simultaneously held
	// connections.
	MeanActive float64
	// MeanUtilization is the arrival-sampled mean channel utilization.
	MeanUtilization float64
	// FinalOccupied is the channel count still held at the horizon.
	FinalOccupied int
}

// BlockingProbability returns Blocked/Offered (0 for no offered load).
func (s Stats) BlockingProbability() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.Blocked) / float64(s.Offered)
}

// Run simulates the configured churn and returns its statistics.
func Run(cfg Config) (Stats, error) {
	if err := cfg.validate(); err != nil {
		return Stats{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	st := linkstate.New(cfg.Tree)
	var kernel des.Kernel
	var stats Stats
	active := 0
	var activeSum, utilSum float64
	samples := 0
	n := cfg.Tree.Nodes()

	release := func(o core.Outcome) {
		if err := st.ReleasePath(o.Src, o.Dst, o.Ports); err != nil {
			panic(fmt.Sprintf("dynamic: release failed: %v", err))
		}
	}
	// releaseRetained drops the partial allocations of a blocked arrival
	// (schedulers without rollback keep them in the outcome).
	releaseRetained := func(o core.Outcome) {
		core.ReleaseRoute(st, o.Src, o.Dst, o.Ports, nil)
	}

	var arrive func()
	arrive = func() {
		now := kernel.Now()
		if now >= cfg.Duration {
			return
		}
		measured := now >= cfg.WarmUp
		src := rng.Intn(n)
		dst := rng.Intn(n)
		res := cfg.Scheduler.Schedule(st, []core.Request{{Src: src, Dst: dst}})
		o := res.Outcomes[0]
		if measured {
			stats.Offered++
			activeSum += float64(active)
			utilSum += st.Utilization()
			samples++
		}
		if o.Granted {
			if measured {
				stats.Accepted++
			}
			active++
			if active > stats.PeakActive {
				stats.PeakActive = active
			}
			hold := des.Time(rng.ExpFloat64()*cfg.MeanHold) + 1
			kernel.After(hold, func() {
				release(o)
				active--
			})
		} else {
			if measured {
				stats.Blocked++
			}
			if len(o.Ports) > 0 {
				releaseRetained(o)
			}
		}
		gap := des.Time(rng.ExpFloat64()/cfg.ArrivalRate) + 1
		kernel.After(gap, arrive)
	}
	kernel.At(0, arrive)
	kernel.RunUntil(cfg.Duration)

	if samples > 0 {
		stats.MeanActive = activeSum / float64(samples)
		stats.MeanUtilization = utilSum / float64(samples)
	}
	stats.FinalOccupied = st.OccupiedCount()
	return stats, nil
}
