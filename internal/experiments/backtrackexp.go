package experiments

import (
	"fmt"

	"repro/internal/report"
)

// ExtBacktrack (E14) sweeps the backtracking budget of the bounded-search
// Level-wise scheduler on the reduced grid, with the optimal rearrangeable
// scheduler as the ceiling: how much of the remaining gap does a little
// search recover, and where do diminishing returns set in?
func ExtBacktrack(perms int, seed int64) ([]AblationCell, error) {
	mk := func(b int) string { return fmt.Sprintf("backtrack,depth=%d", b) }
	specs := []SchedulerSpec{
		{Label: "backtrack 0 (paper)", Spec: mk(0)},
		{Label: "backtrack 2", Spec: mk(2)},
		{Label: "backtrack 8", Spec: mk(8)},
		{Label: "backtrack 32", Spec: mk(32)},
		{Label: "optimal", Spec: "optimal"},
	}
	return runVariants(perms, seed, specs)
}

// BacktrackTable renders the sweep.
func BacktrackTable(cells []AblationCell) *report.Table {
	tb := AblationTable("Extension E14: Level-wise with bounded backtracking", cells)
	tb.AddNote("each backtrack re-opens one level after a dead end; optimal is the rearrangeable ceiling")
	return tb
}
