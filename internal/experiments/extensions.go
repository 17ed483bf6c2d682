package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/fabric"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/switchsim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ExtOptimal (E1) compares Level-wise and Local against the rearrangeable
// optimal scheduler on the reduced grid. The optimal column is 100% for
// every permutation (w == m), quantifying the headroom the greedy global
// scheduler leaves.
func ExtOptimal(perms int, seed int64) ([]AblationCell, error) {
	specs := append(DefaultSchedulers(), SchedulerSpec{Label: "Optimal", Spec: "optimal"})
	return runVariants(perms, seed, specs)
}

// TrafficCell is one (pattern, scheduler) cell of the traffic study.
type TrafficCell struct {
	Pattern   traffic.Pattern
	Scheduler string
	Ratio     stats.Summary
}

// ExtTraffic (E2) evaluates both schedulers across structured and random
// workloads on FT(3,4) (64 nodes, power of two and a perfect square, so
// every pattern applies).
func ExtTraffic(trials int, seed int64) ([]TrafficCell, error) {
	if trials == 0 {
		trials = 50
	}
	tree, err := topology.New(3, 4, 4)
	if err != nil {
		return nil, err
	}
	patterns := []traffic.Pattern{
		traffic.RandomPermutation, traffic.UniformRandom, traffic.Hotspot,
		traffic.BitReversal, traffic.BitComplement, traffic.Shuffle,
		traffic.Transpose, traffic.Tornado, traffic.Neighbor,
	}
	var cells []TrafficCell
	for _, p := range patterns {
		gen := traffic.NewGenerator(tree.Nodes(), seed+int64(p))
		batches := make([][]core.Request, trials)
		for i := range batches {
			if batches[i], err = gen.Batch(p); err != nil {
				return nil, err
			}
		}
		for _, spec := range DefaultSchedulers() {
			ratio, err := measure(tree, spec, batches, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: traffic %v: %v", p, err)
			}
			cells = append(cells, TrafficCell{Pattern: p, Scheduler: spec.Label, Ratio: ratio})
		}
	}
	return cells, nil
}

// TrafficTable renders the traffic study.
func TrafficTable(cells []TrafficCell) *report.Table {
	tb := report.NewTable("Extension E2: traffic patterns on FT(3,4)", "pattern", "scheduler", "mean", "min", "max")
	for _, c := range cells {
		tb.AddRow(c.Pattern.String(), c.Scheduler,
			report.Percent(c.Ratio.Mean), report.Percent(c.Ratio.Min), report.Percent(c.Ratio.Max))
	}
	return tb
}

// SlimCell is one point of the slimmed-tree study: FT(3, m=8, w) as w
// shrinks below m.
type SlimCell struct {
	W         int
	Scheduler string
	Ratio     stats.Summary
}

// ExtSlim (E3) evaluates slimmed fat trees (fewer parents than children),
// where the paper notes the algorithm still applies.
func ExtSlim(perms int, seed int64) ([]SlimCell, error) {
	if perms == 0 {
		perms = 50
	}
	var cells []SlimCell
	for _, w := range []int{2, 3, 4, 6, 8} {
		tree, err := topology.New(3, 8, w)
		if err != nil {
			return nil, err
		}
		batches := traffic.NewGenerator(tree.Nodes(), seed+int64(w)).Permutations(perms)
		for _, spec := range DefaultSchedulers() {
			ratio, err := measure(tree, spec, batches, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: slim w=%d: %v", w, err)
			}
			cells = append(cells, SlimCell{W: w, Scheduler: spec.Label, Ratio: ratio})
		}
	}
	return cells, nil
}

// SlimTable renders the slimmed-tree study.
func SlimTable(cells []SlimCell) *report.Table {
	tb := report.NewTable("Extension E3: slimmed trees FT(3, m=8, w)", "w", "w/m", "scheduler", "mean", "min", "max")
	for _, c := range cells {
		tb.AddRow(fmt.Sprint(c.W), fmt.Sprintf("%.2f", float64(c.W)/8), c.Scheduler,
			report.Percent(c.Ratio.Mean), report.Percent(c.Ratio.Min), report.Percent(c.Ratio.Max))
	}
	return tb
}

// DynamicCell is one offered-load point of the churn study.
type DynamicCell struct {
	Scheduler   string
	ArrivalRate float64
	Blocking    float64
	MeanActive  float64
	Utilization float64
}

// ExtDynamic (E4) sweeps offered load on FT(3,8) and reports blocking
// probability for both schedulers (long-lived connections, the paper's
// motivating scenario).
func ExtDynamic(seed int64) ([]DynamicCell, error) {
	tree, err := topology.New(3, 8, 8)
	if err != nil {
		return nil, err
	}
	var cells []DynamicCell
	specs := []SchedulerSpec{
		{Label: "Local", Spec: "local-random"},
		{Label: "Global", Spec: "level-wise,rollback"},
	}
	for _, rate := range []float64{0.5, 1, 2, 4, 8} {
		for _, spec := range specs {
			c, err := churnCell(tree, spec, rate, seed)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// churnCell runs one offered-load point: Poisson arrivals at rate per
// cycle between random endpoints, exponential holds, and a connection that
// cannot be routed at arrival is lost. A des.Kernel drives a BatchSize-1
// fabric.Manager on this goroutine, so each Connect is its own epoch (no
// timer), and a departure's Release parks in the release ring until the
// next epoch retires it before scheduling. Samples are taken at each
// arrival after the warm-up, utilization from the occupancy gauge right
// after Connect. The cell fails unless, once every connection has departed
// and the manager is closed, the fabric passes CheckInvariants and holds
// nothing.
func churnCell(tree *topology.Tree, spec SchedulerSpec, rate float64, seed int64) (DynamicCell, error) {
	const meanHold, horizon, warmUp = 120, des.Time(20000), des.Time(2000)
	m, err := fabric.New(fabric.Config{Tree: tree, SchedulerSpec: spec.Spec, BatchSize: 1})
	if err != nil {
		return DynamicCell{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	channels := float64(2 * tree.TotalLinks())
	n := tree.Nodes()
	var kernel des.Kernel
	var failed error
	active, offered, blocked := 0, 0, 0
	var activeSum, utilSum float64

	var arrive func()
	arrive = func() {
		now := kernel.Now()
		if now >= horizon || failed != nil {
			return
		}
		measured := now >= warmUp
		src, dst := rng.Intn(n), rng.Intn(n)
		h, err := m.Connect(context.Background(), src, dst)
		if measured {
			offered++
			activeSum += float64(active)
			utilSum += float64(m.Unavailable()) / channels
		}
		switch {
		case err == nil:
			active++
			hold := des.Time(rng.ExpFloat64()*meanHold) + 1
			kernel.After(hold, func() {
				active--
				if err := h.Release(); err != nil && failed == nil {
					failed = err
				}
			})
		case errors.Is(err, fabric.ErrUnroutable):
			if measured {
				blocked++
			}
		default:
			failed = err
			return
		}
		gap := des.Time(rng.ExpFloat64()/rate) + 1
		kernel.After(gap, arrive)
	}
	kernel.At(0, arrive)
	kernel.Run() // past the horizon only departures remain
	if failed == nil {
		failed = m.Close(context.Background())
	}
	if failed == nil {
		failed = m.CheckInvariants()
	}
	if st := m.Stats(); failed == nil && st.Active != 0 {
		failed = fmt.Errorf("fabric did not drain: %d connections active", st.Active)
	}
	if failed != nil {
		return DynamicCell{}, fmt.Errorf("experiments: churn %s at %v/cycle: %w", spec.Label, rate, failed)
	}
	return DynamicCell{
		Scheduler:   spec.Label,
		ArrivalRate: rate,
		Blocking:    float64(blocked) / float64(offered),
		MeanActive:  activeSum / float64(offered),
		Utilization: utilSum / float64(offered),
	}, nil
}

// DynamicTable renders the churn study.
func DynamicTable(cells []DynamicCell) *report.Table {
	tb := report.NewTable("Extension E4: long-lived connection churn on FT(3,8)",
		"arrival rate", "scheduler", "blocking", "mean active", "utilization")
	for _, c := range cells {
		tb.AddRow(fmt.Sprintf("%.1f/cycle", c.ArrivalRate), c.Scheduler,
			report.Percent(c.Blocking), fmt.Sprintf("%.1f", c.MeanActive), report.Percent(c.Utilization))
	}
	return tb
}

// SwitchSimCell is one row of the distributed-simulation cross-check.
type SwitchSimCell struct {
	Width      int
	Nodes      int
	Sequential stats.Summary // core.Local (random)
	Wave       stats.Summary // switchsim distributed
	Global     stats.Summary // Level-wise
}

// ExtSwitchSim (E5) cross-checks the sequential local baseline against
// the event-driven distributed switch simulation on the Figure 9(b)
// sizes (trimmed at 512 nodes to keep the event simulation brisk).
func ExtSwitchSim(trials int, seed int64) ([]SwitchSimCell, error) {
	if trials == 0 {
		trials = 30
	}
	var cells []SwitchSimCell
	for _, w := range []int{4, 6, 8} {
		tree, err := topology.New(3, w, w)
		if err != nil {
			return nil, err
		}
		batches := traffic.NewGenerator(tree.Nodes(), seed+int64(w)).Permutations(trials)
		wave := make([]float64, 0, trials)
		for trial, batch := range batches {
			m := &switchsim.Model{Policy: core.RandomFit, Seed: seed + int64(trial)}
			resWave, _ := m.Run(tree, batch)
			if err := core.Verify(tree, resWave); err != nil {
				return nil, err
			}
			wave = append(wave, resWave.Ratio())
		}
		var ratio [2]stats.Summary // Local, Global
		for i, spec := range DefaultSchedulers() {
			if ratio[i], err = measure(tree, spec, batches, nil, nil); err != nil {
				return nil, err
			}
		}
		cells = append(cells, SwitchSimCell{
			Width: w, Nodes: tree.Nodes(),
			Sequential: ratio[0],
			Wave:       stats.Summarize(wave),
			Global:     ratio[1],
		})
	}
	return cells, nil
}

// SwitchSimTable renders the cross-check.
func SwitchSimTable(cells []SwitchSimCell) *report.Table {
	tb := report.NewTable("Extension E5: sequential vs distributed local baseline (3-level)",
		"nodes", "local sequential", "local distributed", "level-wise")
	for _, c := range cells {
		tb.AddRow(fmt.Sprint(c.Nodes),
			report.Percent(c.Sequential.Mean), report.Percent(c.Wave.Mean), report.Percent(c.Global.Mean))
	}
	tb.AddNote("the distributed wave-parallel variant runs a few points above the sequential one (level-synchronous teardown); both stay well below Level-wise")
	return tb
}
