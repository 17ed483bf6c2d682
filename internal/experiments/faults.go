package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/linkstate"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// FaultCell is one (failure fraction, scheduler) point of the resilience
// study.
type FaultCell struct {
	FailFraction float64
	Scheduler    string
	Ratio        stats.Summary
}

// ExtFaults (E10) injects random link failures — both channels of a
// failed physical link go out of service — and measures schedulability
// degradation on FT(3,8). Fat trees degrade gracefully thanks to path
// diversity; the global scheduler routes around failures it can see,
// keeping its lead over the blind local one.
func ExtFaults(perms int, seed int64) ([]FaultCell, error) {
	if perms == 0 {
		perms = 50
	}
	tree, err := topology.New(3, 8, 8)
	if err != nil {
		return nil, err
	}
	batches := traffic.NewGenerator(tree.Nodes(), seed).Permutations(perms)
	var cells []FaultCell
	for _, frac := range []float64{0, 0.02, 0.05, 0.10, 0.20} {
		prep := func(st *linkstate.State) { injectFailures(st, frac, seed) }
		for _, spec := range DefaultSchedulers() {
			// Verification replays on a fresh, fault-free state: it still
			// proves no double allocation among grants.
			ratio, err := measure(tree, spec, batches, prep, nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: faults %.2f: %v", frac, err)
			}
			cells = append(cells, FaultCell{FailFraction: frac, Scheduler: spec.Label, Ratio: ratio})
		}
	}
	return cells, nil
}

// injectFailures fails the given fraction of physical links (both
// channels), chosen uniformly with a deterministic RNG.
func injectFailures(st *linkstate.State, frac float64, seed int64) {
	if frac <= 0 {
		return
	}
	tree := st.Tree()
	rng := rand.New(rand.NewSource(seed * 31))
	for h := 0; h < tree.LinkLevels(); h++ {
		for idx := 0; idx < tree.SwitchesAt(h); idx++ {
			for p := 0; p < tree.Parents(); p++ {
				if rng.Float64() < frac {
					st.FailLink(linkstate.Up, h, idx, p)
					st.FailLink(linkstate.Down, h, idx, p)
				}
			}
		}
	}
}

// FaultTable renders the resilience study.
func FaultTable(cells []FaultCell) *report.Table {
	tb := report.NewTable("Extension E10: schedulability under random link failures (FT(3,8))",
		"failed links", "scheduler", "mean", "min", "max")
	for _, c := range cells {
		tb.AddRow(report.Percent(c.FailFraction), c.Scheduler,
			report.Percent(c.Ratio.Mean), report.Percent(c.Ratio.Min), report.Percent(c.Ratio.Max))
	}
	tb.AddNote("a failed physical link loses both its upward and downward channel; failures persist across batches")
	return tb
}
