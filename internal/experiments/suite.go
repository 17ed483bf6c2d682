package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/report"
)

// SuiteConfig controls a full reproduction run.
type SuiteConfig struct {
	// Permutations per test point; 0 means the paper's 100.
	Permutations int
	// Seed makes the whole suite reproducible.
	Seed int64
	// SkipExtensions restricts the run to the paper's own evaluation
	// (Figure 9 and Table 1).
	SkipExtensions bool
	// Workers bounds the pool that runs Figure 9's widths and the other
	// components; results and output order are identical to a sequential
	// run.
	Workers int
	// Only, when non-empty, runs just the suite components whose id
	// contains it (case-insensitive), e.g. "e12", "a1", "fig9",
	// "table1" or "complexity".
	Only string
}

func (c SuiteConfig) wants(id string) bool {
	if c.Only == "" {
		return true
	}
	return strings.Contains(strings.ToLower(id), strings.ToLower(c.Only))
}

// component is one named, independently runnable piece of the suite
// after Figure 9: its id, its run and its table renderer.
type component struct {
	id  string
	run func(perms int, seed int64) (*report.Table, error)
}

// entry pairs an experiment with the renderer of its table.
func entry[T any](id string, run func(perms int, seed int64) (T, error), render func(T) *report.Table) component {
	return component{id, func(perms int, seed int64) (*report.Table, error) {
		cells, err := run(perms, seed)
		if err != nil {
			return nil, err
		}
		return render(cells), nil
	}}
}

// seedOnly adapts an experiment with a fixed sample size.
func seedOnly[T any](run func(seed int64) (T, error)) func(int, int64) (T, error) {
	return func(_ int, seed int64) (T, error) { return run(seed) }
}

// titled renders an ablation sweep under its title.
func titled(title string) func([]AblationCell) *report.Table {
	return func(cells []AblationCell) *report.Table { return AblationTable(title, cells) }
}

// paperComponents follow Figure 9 in every run; extensionComponents
// follow them unless SkipExtensions is set.
var (
	paperComponents = []component{
		entry("table1", seedOnly(Table1), Table1Table),
		entry("complexity", func(_ int, seed int64) ([]ComplexityCell, error) { return ComplexityCounts(0, seed) }, ComplexityTable),
	}
	extensionComponents = []component{
		entry("A1 port-policy", AblationPortPolicy, titled("Ablation A1: Level-wise port-selection policy")),
		entry("A2 rollback", AblationRollback, titled("Ablation A2: rollback of failed requests")),
		entry("A3 ordering", AblationOrdering, titled("Ablation A3: request processing order")),
		entry("E1 optimal", ExtOptimal, titled("Extension E1: optimal (rearrangeable) reference")),
		entry("E2 traffic", ExtTraffic, TrafficTable),
		entry("E3 slim", ExtSlim, SlimTable),
		entry("E4 dynamic", seedOnly(ExtDynamic), DynamicTable),
		entry("E5 switchsim", func(perms int, seed int64) ([]SwitchSimCell, error) { return ExtSwitchSim(perms/2, seed) }, SwitchSimTable),
		entry("E6 tbwp", ExtTBWP, TBWPTable),
		entry("E7 rounds", ExtRounds, RoundsTable),
		entry("E8 wormhole-load", seedOnly(ExtWormholeLoad), WormholeLoadTable),
		entry("E9 bulk-transfer", seedOnly(ExtBulkTransfer), BulkTable),
		entry("E10 faults", ExtFaults, FaultTable),
		entry("E11 failure-loci", ExtFailureLoci, FailureLociTable),
		entry("E12 staleness", ExtStaleness, StalenessTable),
		entry("E13 multicast", ExtMulticast, MulticastTable),
		entry("E14 backtrack", ExtBacktrack, BacktrackTable),
		entry("E15 analytic", ExtAnalytic, AnalyticTable),
		entry("E17 chaos", seedOnly(ExtChaos), ChaosTable),
		entry("E21 gray", seedOnly(ExtGray), GrayTable),
	}
)

// RunSuite executes the evaluation — every figure and table of the paper
// plus (unless skipped or filtered) the ablations and extensions —
// rendering each as an ASCII table to out. Figure 9's widths and the
// components run as one job list on a pool of cfg.Workers; output order
// does not depend on it. It returns the Figure 9 claim-check violations
// (nil when the reproduction matches the paper's shape, or when the claim
// check did not run due to filtering).
func RunSuite(out io.Writer, cfg SuiteConfig) ([]string, error) {
	var jobs []func() error
	var subplots []*Fig9Result
	if cfg.wants("fig9") {
		for _, fc := range paperFig9(cfg.Permutations, cfg.Seed) {
			r, js, err := fig9Jobs(fc)
			if err != nil {
				return nil, err
			}
			subplots = append(subplots, r)
			jobs = append(jobs, js...)
		}
	}
	components := paperComponents
	if !cfg.SkipExtensions {
		components = slices.Concat(paperComponents, extensionComponents)
	}
	var selected []component
	for _, c := range components {
		if cfg.wants(c.id) {
			selected = append(selected, c)
		}
	}
	tables := make([]*report.Table, len(selected))
	for i, c := range selected {
		jobs = append(jobs, func() (err error) {
			if tables[i], err = c.run(cfg.Permutations, cfg.Seed); err != nil {
				return fmt.Errorf("experiments: %s: %w", c.id, err)
			}
			return nil
		})
	}
	if err := runJobs(cfg.Workers, jobs); err != nil {
		return nil, err
	}

	var violations []string
	if subplots != nil {
		for _, r := range subplots {
			if err := r.Table().Render(out); err != nil {
				return nil, err
			}
		}
		if err := Fig9dTable(Fig9d(subplots...)).Render(out); err != nil {
			return nil, err
		}
		violations = CheckPaperClaims(subplots...)
		if len(violations) == 0 {
			fmt.Fprintln(out, "Figure 9 claim check: all Section 5 claims hold.")
		} else {
			fmt.Fprintf(out, "Figure 9 claim check: %d violation(s):\n", len(violations))
			for _, v := range violations {
				fmt.Fprintf(out, "  - %s\n", v)
			}
		}
		fmt.Fprintln(out)
	}
	for _, t := range tables {
		if err := t.Render(out); err != nil {
			return nil, err
		}
	}
	return violations, nil
}
