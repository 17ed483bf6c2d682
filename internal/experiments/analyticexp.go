package experiments

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// AnalyticCell compares a mean-field prediction with measurement.
type AnalyticCell struct {
	Levels, Width int
	Scheduler     string
	Predicted     float64
	Measured      stats.Summary
}

// ExtAnalytic (E15) validates the simulator against the mean-field model
// of package analytic across the Figure 9 grid: the local prediction is
// quantitative (within a few points, tightening with w); the Level-wise
// prediction is a strict lower bound (the scheduler preserves U/D
// alignment better than independence assumes).
func ExtAnalytic(perms int, seed int64) ([]AnalyticCell, error) {
	if perms == 0 {
		perms = 50
	}
	grid := []struct{ l, w int }{
		{2, 16}, {2, 64}, {3, 8}, {3, 16}, {4, 5}, {4, 7},
	}
	models := [2]analytic.Scheduler{analytic.LocalRandom, analytic.LevelWise} // DefaultSchedulers' order
	var cells []AnalyticCell
	for _, g := range grid {
		tree, err := topology.New(g.l, g.w, g.w)
		if err != nil {
			return nil, err
		}
		batches := traffic.NewGenerator(tree.Nodes(), seed+int64(g.w)).Permutations(perms)
		for i, spec := range DefaultSchedulers() {
			ratio, err := measure(tree, spec, batches, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: analytic %s FT(%d,%d): %v", spec.Label, g.l, g.w, err)
			}
			cells = append(cells, AnalyticCell{
				Levels: g.l, Width: g.w,
				Scheduler: spec.Label,
				Predicted: analytic.Predict(models[i], g.l, g.w, 0),
				Measured:  ratio,
			})
		}
	}
	return cells, nil
}

// AnalyticTable renders the model-vs-measurement comparison.
func AnalyticTable(cells []AnalyticCell) *report.Table {
	tb := report.NewTable("Extension E15: mean-field model vs simulation",
		"FT(l,w)", "scheduler", "predicted", "measured", "delta")
	for _, c := range cells {
		tb.AddRow(fmt.Sprintf("FT(%d,%d)", c.Levels, c.Width), c.Scheduler,
			report.Percent(c.Predicted), report.Percent(c.Measured.Mean),
			fmt.Sprintf("%+.1f", 100*(c.Predicted-c.Measured.Mean)))
	}
	tb.AddNote("the local model is quantitative; the Level-wise model is a deliberate lower bound (independence ignores the scheduler's U/D alignment)")
	return tb
}
