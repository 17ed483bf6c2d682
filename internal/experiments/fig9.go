// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the ablations and extensions indexed in DESIGN.md §3.
// Each experiment returns structured data and can render itself as the
// rows/series the paper reports (package report).
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// DefaultPermutations is the paper's sample size per test point ("We
// generate a set of 100 random permutations for each test point").
const DefaultPermutations = 100

// Paper evaluation grids (Figure 9): system sizes are w^l.
var (
	// Fig9aWidths are the two-level widths: 64, 256, 1024, 2304, 4096
	// nodes.
	Fig9aWidths = []int{8, 16, 32, 48, 64}
	// Fig9bWidths are the three-level widths: 64, 216, 512, 1728, 4096
	// nodes.
	Fig9bWidths = []int{4, 6, 8, 12, 16}
	// Fig9cWidths are the four-level widths: 81, 256, 625, 1296, 2401
	// nodes.
	Fig9cWidths = []int{3, 4, 5, 6, 7}
)

// SchedulerSpec names a scheduler contender for an experiment run: a
// display label plus the internal/sched registry spec that builds it.
type SchedulerSpec struct {
	Label string
	Spec  string
}

// Make constructs a fresh engine from the registry spec. Experiments
// build a fresh engine per batch so seeded randomness (seed=N in the
// spec) replays identically run to run. The spec must be valid; the run
// entry points validate every contender with sched.Parse up front.
func (s SchedulerSpec) Make() core.Scheduler { return sched.MustParse(s.Spec) }

// validateSpecs rejects malformed registry specs before any scheduling
// work starts, so bad specs surface as errors rather than panics.
func validateSpecs(specs []SchedulerSpec) error {
	for _, s := range specs {
		if _, err := sched.Parse(s.Spec); err != nil {
			return fmt.Errorf("experiments: scheduler %q: %w", s.Label, err)
		}
	}
	return nil
}

// DefaultSchedulers returns the paper's two contenders: the conventional
// local scheduler ("each switch selects a routing path randomly from the
// available local ports") and the Level-wise global scheduler ("we select
// the first available port").
func DefaultSchedulers() []SchedulerSpec {
	return []SchedulerSpec{
		{Label: "Local", Spec: "local-random"},
		{Label: "Global", Spec: "level-wise"},
	}
}

// Point is one bar of Figure 9: a (topology, scheduler) cell summarized
// over the permutation sample.
type Point struct {
	Levels    int
	Width     int
	Nodes     int
	Scheduler string
	Ratio     stats.Summary // schedulability ratio over the sample
}

// Fig9Result is one subplot of Figure 9.
type Fig9Result struct {
	Name   string
	Levels int
	Points []Point
}

// Fig9Config parameterizes a Figure 9 subplot run.
type Fig9Config struct {
	Name         string
	Levels       int
	Widths       []int
	Permutations int // 0 means DefaultPermutations
	Seed         int64
	Schedulers   []SchedulerSpec // nil means DefaultSchedulers
	// Workers bounds the number of widths evaluated concurrently;
	// 0 or 1 runs sequentially. Results are identical either way: each
	// width owns its topology, generator and link state, and all
	// randomness is seeded per width.
	Workers int
}

// RunFig9 executes one subplot: for every width it draws the permutation
// sample once and schedules it with every contender, so all schedulers
// see identical workloads. Every result is passed through core.Verify.
// Widths are evaluated in parallel when cfg.Workers > 1.
func RunFig9(cfg Fig9Config) (*Fig9Result, error) {
	res, jobs, err := fig9Jobs(cfg)
	if err != nil {
		return nil, err
	}
	if err := runJobs(cfg.Workers, jobs); err != nil {
		return nil, err
	}
	return res, nil
}

// fig9Jobs validates cfg and returns the subplot with one job per width
// that fills the width's points.
func fig9Jobs(cfg Fig9Config) (*Fig9Result, []func() error, error) {
	perms := cfg.Permutations
	if perms == 0 {
		perms = DefaultPermutations
	}
	specs := cfg.Schedulers
	if specs == nil {
		specs = DefaultSchedulers()
	}
	if err := validateSpecs(specs); err != nil {
		return nil, nil, err
	}
	res := &Fig9Result{
		Name:   cfg.Name,
		Levels: cfg.Levels,
		Points: make([]Point, len(cfg.Widths)*len(specs)),
	}
	jobs := make([]func() error, len(cfg.Widths))
	for wi, w := range cfg.Widths {
		jobs[wi] = func() error {
			tree, err := topology.New(cfg.Levels, w, w)
			if err != nil {
				return err
			}
			batches := traffic.NewGenerator(tree.Nodes(), cfg.Seed+int64(w)).Permutations(perms)
			for si, spec := range specs {
				ratio, err := measure(tree, spec, batches, nil, nil)
				if err != nil {
					return fmt.Errorf("experiments: %s FT(%d,%d) failed verification: %v", spec.Label, cfg.Levels, w, err)
				}
				res.Points[wi*len(specs)+si] = Point{
					Levels:    cfg.Levels,
					Width:     w,
					Nodes:     tree.Nodes(),
					Scheduler: spec.Label,
					Ratio:     ratio,
				}
			}
			return nil
		}
	}
	return res, jobs, nil
}

// paperFig9 configures the paper's three subplots on its grids.
func paperFig9(perms int, seed int64) [3]Fig9Config {
	return [3]Fig9Config{
		{Name: "Figure 9(a): two-level fat tree", Levels: 2, Widths: Fig9aWidths, Permutations: perms, Seed: seed},
		{Name: "Figure 9(b): three-level fat tree", Levels: 3, Widths: Fig9bWidths, Permutations: perms, Seed: seed},
		{Name: "Figure 9(c): four-level fat tree", Levels: 4, Widths: Fig9cWidths, Permutations: perms, Seed: seed},
	}
}

// Fig9a runs the two-level subplot on the paper's grid.
func Fig9a(perms int, seed int64) (*Fig9Result, error) { return RunFig9(paperFig9(perms, seed)[0]) }

// Fig9b runs the three-level subplot on the paper's grid.
func Fig9b(perms int, seed int64) (*Fig9Result, error) { return RunFig9(paperFig9(perms, seed)[1]) }

// Fig9c runs the four-level subplot on the paper's grid.
func Fig9c(perms int, seed int64) (*Fig9Result, error) { return RunFig9(paperFig9(perms, seed)[2]) }

// point returns the point for (width, scheduler), or nil.
func (r *Fig9Result) point(width int, scheduler string) *Point {
	for i := range r.Points {
		p := &r.Points[i]
		if p.Width == width && p.Scheduler == scheduler {
			return p
		}
	}
	return nil
}

// Schedulers lists the scheduler labels present, in first-seen order.
func (r *Fig9Result) Schedulers() []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range r.Points {
		if !seen[p.Scheduler] {
			seen[p.Scheduler] = true
			out = append(out, p.Scheduler)
		}
	}
	return out
}

// Widths lists the widths present, in first-seen order.
func (r *Fig9Result) Widths() []int {
	var out []int
	seen := map[int]bool{}
	for _, p := range r.Points {
		if !seen[p.Width] {
			seen[p.Width] = true
			out = append(out, p.Width)
		}
	}
	return out
}

// Table renders the subplot in the paper's layout: one row per system
// size, mean (min–max) per scheduler.
func (r *Fig9Result) Table() *report.Table {
	scheds := r.Schedulers()
	header := []string{"nodes", "w"}
	for _, s := range scheds {
		header = append(header, s+" mean", s+" min", s+" max")
	}
	tb := report.NewTable(r.Name, header...)
	for _, w := range r.Widths() {
		var row []string
		first := r.point(w, scheds[0])
		row = append(row, fmt.Sprintf("%d(%d^%d)", first.Nodes, w, r.Levels), fmt.Sprint(w))
		for _, s := range scheds {
			p := r.point(w, s)
			row = append(row, report.Percent(p.Ratio.Mean), report.Percent(p.Ratio.Min), report.Percent(p.Ratio.Max))
		}
		tb.AddRow(row...)
	}
	return tb
}

// Fig9dRow is one bar of Figure 9(d): the grand mean of a scheduler over
// one subplot's sizes.
type Fig9dRow struct {
	Scheduler string
	Levels    int
	Mean      float64
}

// Fig9d aggregates subplots into the Figure 9(d) averages.
func Fig9d(subplots ...*Fig9Result) []Fig9dRow {
	var rows []Fig9dRow
	for _, sp := range subplots {
		for _, s := range sp.Schedulers() {
			var ratios []float64
			for _, p := range sp.Points {
				if p.Scheduler == s {
					ratios = append(ratios, p.Ratio.Mean)
				}
			}
			rows = append(rows, Fig9dRow{Scheduler: s, Levels: sp.Levels, Mean: stats.Summarize(ratios).Mean})
		}
	}
	return rows
}

// Fig9dTable renders the Figure 9(d) bars.
func Fig9dTable(rows []Fig9dRow) *report.Table {
	tb := report.NewTable("Figure 9(d): average schedulability", "scheduler", "levels", "mean", "")
	for _, r := range rows {
		tb.AddRow(r.Scheduler, fmt.Sprint(r.Levels), report.Percent(r.Mean), report.Bar(r.Mean, 24))
	}
	return tb
}

// CheckPaperClaims validates the qualitative shape of Figure 9 against the
// paper's Section 5 text and returns every violated claim (empty = all
// hold). Claims checked, with the tolerance DESIGN.md §8 documents:
//
//  1. Global beats Local at every grid point.
//  2. In networks above 500 nodes the improvement exceeds ~30%
//     (paper: "the improvement is over 30%"); we require >= 25% absolute.
//  3. The Local minimum... (paper: Level-wise min > Local max per point;
//     we require it at every point).
//  4. Global stays within the published 78–95% band and Local within
//     45–70%, each widened by 5 points.
func CheckPaperClaims(subplots ...*Fig9Result) []string {
	var bad []string
	for _, sp := range subplots {
		for _, w := range sp.Widths() {
			g := sp.point(w, "Global")
			l := sp.point(w, "Local")
			if g == nil || l == nil {
				continue
			}
			tag := fmt.Sprintf("FT(%d,%d) N=%d", sp.Levels, w, g.Nodes)
			if g.Ratio.Mean <= l.Ratio.Mean {
				bad = append(bad, fmt.Sprintf("%s: Global %.3f <= Local %.3f", tag, g.Ratio.Mean, l.Ratio.Mean))
			}
			if g.Nodes > 500 && g.Ratio.Mean-l.Ratio.Mean < 0.25 {
				bad = append(bad, fmt.Sprintf("%s: improvement %.3f < 0.25", tag, g.Ratio.Mean-l.Ratio.Mean))
			}
			if g.Ratio.Min <= l.Ratio.Max {
				bad = append(bad, fmt.Sprintf("%s: Global min %.3f <= Local max %.3f", tag, g.Ratio.Min, l.Ratio.Max))
			}
			if g.Ratio.Mean < 0.73 || g.Ratio.Mean > 1.0 {
				bad = append(bad, fmt.Sprintf("%s: Global mean %.3f outside 78–95%% (±5)", tag, g.Ratio.Mean))
			}
			if l.Ratio.Mean < 0.40 || l.Ratio.Mean > 0.80 {
				bad = append(bad, fmt.Sprintf("%s: Local mean %.3f outside 45–70%% (±5/±10)", tag, l.Ratio.Mean))
			}
		}
	}
	return bad
}
