package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// AblationCell is one (variant, topology) measurement.
type AblationCell struct {
	Variant string
	Levels  int
	Width   int
	Nodes   int
	Ratio   stats.Summary
}

// ablationGrid is the reduced Figure-9 grid the ablations sweep: one
// representative size per depth.
var ablationGrid = [][2]int{{2, 16}, {3, 8}, {4, 5}}

// runVariants schedules the same permutation sample with every variant.
func runVariants(perms int, seed int64, variants []SchedulerSpec) ([]AblationCell, error) {
	if perms == 0 {
		perms = DefaultPermutations
	}
	if err := validateSpecs(variants); err != nil {
		return nil, err
	}
	var cells []AblationCell
	for _, g := range ablationGrid {
		tree, err := topology.New(g[0], g[1], g[1])
		if err != nil {
			return nil, err
		}
		batches := traffic.NewGenerator(tree.Nodes(), seed+int64(g[0]*100+g[1])).Permutations(perms)
		for _, spec := range variants {
			ratio, err := measure(tree, spec, batches, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: ablation %s: %v", spec.Label, err)
			}
			cells = append(cells, AblationCell{
				Variant: spec.Label,
				Levels:  g[0],
				Width:   g[1],
				Nodes:   tree.Nodes(),
				Ratio:   ratio,
			})
		}
	}
	return cells, nil
}

// AblationPortPolicy (A1) compares Level-wise port-selection policies:
// the paper's first-fit against random and least-loaded lookahead.
func AblationPortPolicy(perms int, seed int64) ([]AblationCell, error) {
	return runVariants(perms, seed, []SchedulerSpec{
		{Label: "first-fit", Spec: "level-wise,policy=first-fit"},
		{Label: "random", Spec: "level-wise,policy=random"},
		{Label: "least-loaded", Spec: "level-wise,policy=least-loaded"},
	})
}

// AblationRollback (A2) measures whether releasing a failed request's
// partial allocations (not in the paper's pseudo-code) changes the ratio.
// Under the paper's level-major traversal it provably cannot: by the time
// a request fails at level h, every other request has already finished
// deciding at levels < h, so the released channels are never re-examined.
// The request-major traversal (the hardware's order) can exploit the
// released capacity, so all four combinations are measured.
func AblationRollback(perms int, seed int64) ([]AblationCell, error) {
	return runVariants(perms, seed, []SchedulerSpec{
		{Label: "level-major, no-rollback (paper)", Spec: "level-wise"},
		{Label: "level-major, rollback", Spec: "level-wise,rollback"},
		{Label: "request-major, no-rollback", Spec: "level-wise,traversal=request-major"},
		{Label: "request-major, rollback", Spec: "level-wise,traversal=request-major,rollback"},
	})
}

// AblationOrdering (A3) compares request processing orders.
func AblationOrdering(perms int, seed int64) ([]AblationCell, error) {
	mk := func(order string) string { return fmt.Sprintf("level-wise,order=%s,seed=%d", order, seed) }
	return runVariants(perms, seed, []SchedulerSpec{
		{Label: "natural (paper)", Spec: mk("natural")},
		{Label: "shuffled", Spec: mk("shuffle")},
		{Label: "deepest-first", Spec: mk("deepest-first")},
	})
}

// AblationTable renders an ablation sweep.
func AblationTable(title string, cells []AblationCell) *report.Table {
	tb := report.NewTable(title, "variant", "FT(l,w)", "nodes", "mean", "min", "max")
	for _, c := range cells {
		tb.AddRow(c.Variant,
			fmt.Sprintf("FT(%d,%d)", c.Levels, c.Width),
			fmt.Sprint(c.Nodes),
			report.Percent(c.Ratio.Mean), report.Percent(c.Ratio.Min), report.Percent(c.Ratio.Max))
	}
	return tb
}

// ComplexityCell is one row of the Section 4 complexity comparison: the
// mean per-request operation counts of both schedulers.
type ComplexityCell struct {
	Levels, Width, Nodes int
	Scheduler            string
	StepsPerReq          float64 // sequential level visits (~l vs ~2l)
	VectorReadsPerReq    float64
	AllocsPerReq         float64
}

// ComplexityCounts instruments both schedulers over the reduced grid,
// exhibiting the paper's O(l·log_l N) vs O(2l·log_l N) claim as measured
// per-request link-state reads.
func ComplexityCounts(perms int, seed int64) ([]ComplexityCell, error) {
	if perms == 0 {
		perms = 20
	}
	var cells []ComplexityCell
	for _, g := range ablationGrid {
		tree, err := topology.New(g[0], g[1], g[1])
		if err != nil {
			return nil, err
		}
		batches := traffic.NewGenerator(tree.Nodes(), seed).Permutations(perms)
		for _, spec := range DefaultSchedulers() {
			var ops core.Counters
			total := 0
			if _, err := measure(tree, spec, batches, nil, func(r *core.Result) {
				ops.Add(r.Ops)
				total += r.Total
			}); err != nil {
				return nil, fmt.Errorf("experiments: complexity %s: %v", spec.Label, err)
			}
			cells = append(cells, ComplexityCell{
				Levels: g[0], Width: g[1], Nodes: tree.Nodes(),
				Scheduler:         spec.Label,
				StepsPerReq:       float64(ops.Steps) / float64(total),
				VectorReadsPerReq: float64(ops.VectorReads) / float64(total),
				AllocsPerReq:      float64(ops.Allocs) / float64(total),
			})
		}
	}
	return cells, nil
}

// ComplexityTable renders the operation-count comparison.
func ComplexityTable(cells []ComplexityCell) *report.Table {
	tb := report.NewTable("Section 4: per-request sequential steps (Level-wise ~l, local ~2l)",
		"FT(l,w)", "scheduler", "steps/req", "vector reads/req", "allocs/req")
	for _, c := range cells {
		tb.AddRow(fmt.Sprintf("FT(%d,%d)", c.Levels, c.Width), c.Scheduler,
			fmt.Sprintf("%.2f", c.StepsPerReq),
			fmt.Sprintf("%.2f", c.VectorReadsPerReq), fmt.Sprintf("%.2f", c.AllocsPerReq))
	}
	tb.AddNote("a step is one level visit; Level-wise settles up+down in one step via the AND, local visits each level twice")
	return tb
}
