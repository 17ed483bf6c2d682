package experiments

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// StalenessCell is one point of the information-staleness sweep.
type StalenessCell struct {
	Window int // 0 renders as the local baseline row
	Label  string
	Ratio  stats.Summary
}

// ExtStaleness (E12) asks how fresh the Level-wise scheduler's global
// view must be: the destination-side link state is refreshed only every
// Window requests, and stale decisions can fail at commit like the local
// scheduler's blind ones. The sweep interpolates between the paper's two
// contenders and shows how quickly the global advantage decays — i.e.
// what update rate a control plane must sustain.
func ExtStaleness(perms int, seed int64) ([]StalenessCell, error) {
	if perms == 0 {
		perms = DefaultPermutations
	}
	tree, err := topology.New(3, 8, 8)
	if err != nil {
		return nil, err
	}
	n := tree.Nodes()
	batches := traffic.NewGenerator(n, seed).Permutations(perms)
	run := func(label, spec string) (StalenessCell, error) {
		ratio, err := measure(tree, SchedulerSpec{Label: label, Spec: spec}, batches, nil, nil)
		if err != nil {
			return StalenessCell{}, fmt.Errorf("experiments: staleness %s: %v", label, err)
		}
		return StalenessCell{Label: label, Ratio: ratio}, nil
	}

	var cells []StalenessCell
	for _, w := range []int{1, 4, 16, 64, 256, n} {
		c, err := run(fmt.Sprintf("window %d", w), fmt.Sprintf("stale,window=%d", w))
		if err != nil {
			return nil, err
		}
		c.Window = w
		cells = append(cells, c)
	}
	c, err := run("local greedy (no view)", "local-greedy")
	if err != nil {
		return nil, err
	}
	cells = append(cells, c)
	return cells, nil
}

// StalenessTable renders the sweep.
func StalenessTable(cells []StalenessCell) *report.Table {
	tb := report.NewTable("Extension E12: Level-wise with a stale global view (FT(3,8))",
		"view refresh", "mean", "min", "max", "")
	for _, c := range cells {
		tb.AddRow(c.Label, report.Percent(c.Ratio.Mean), report.Percent(c.Ratio.Min),
			report.Percent(c.Ratio.Max), report.Bar(c.Ratio.Mean, 24))
	}
	tb.AddNote("window 1 = exact Level-wise; the view refreshes every N requests; decisions that went stale fail at commit")
	return tb
}
