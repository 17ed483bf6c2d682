package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// FailureLocus describes where one scheduler's denials happen: counts per
// (level, direction) over a permutation sample.
type FailureLocus struct {
	Scheduler string
	Levels    int
	Width     int
	// UpFails[h] / DownFails[h] count requests denied at link level h
	// while climbing / descending. The Level-wise scheduler has no
	// separate down phase: its denials are all "up" (the combined AND).
	UpFails   []int
	DownFails []int
	Granted   int
	Total     int
}

// ExtFailureLoci (E11) locates the denials of both schedulers on FT(3,8):
// the local scheduler loses most requests on the *downward* path (the
// blind commitment the paper's Figure 4 illustrates), while Level-wise
// denials concentrate at the highest level, where the remaining port
// choices run out.
func ExtFailureLoci(perms int, seed int64) ([]FailureLocus, error) {
	if perms == 0 {
		perms = DefaultPermutations
	}
	tree, err := topology.New(3, 8, 8)
	if err != nil {
		return nil, err
	}
	batches := traffic.NewGenerator(tree.Nodes(), seed).Permutations(perms)
	var out []FailureLocus
	for _, spec := range DefaultSchedulers() {
		locus := FailureLocus{
			Scheduler: spec.Label,
			Levels:    tree.Levels(),
			Width:     tree.Parents(),
			UpFails:   make([]int, tree.LinkLevels()),
			DownFails: make([]int, tree.LinkLevels()),
		}
		if _, err := measure(tree, spec, batches, nil, func(res *core.Result) {
			locus.Total += res.Total
			locus.Granted += res.Granted
			for _, o := range res.Outcomes {
				if o.Granted || o.FailLevel < 0 {
					continue
				}
				if o.FailDown {
					locus.DownFails[o.FailLevel]++
				} else {
					locus.UpFails[o.FailLevel]++
				}
			}
		}); err != nil {
			return nil, err
		}
		out = append(out, locus)
	}
	return out, nil
}

// FailureLociTable renders the denial loci.
func FailureLociTable(loci []FailureLocus) *report.Table {
	tb := report.NewTable("Extension E11: where requests are denied (FT(3,8), per link level)",
		"scheduler", "level", "up-phase denials", "down-phase denials", "share of all denials")
	for _, l := range loci {
		denied := l.Total - l.Granted
		for h := 0; h < len(l.UpFails); h++ {
			share := 0.0
			if denied > 0 {
				share = float64(l.UpFails[h]+l.DownFails[h]) / float64(denied)
			}
			tb.AddRow(l.Scheduler, fmt.Sprint(h),
				fmt.Sprint(l.UpFails[h]), fmt.Sprint(l.DownFails[h]), report.Percent(share))
		}
	}
	tb.AddNote("Level-wise has no separate down phase: the AND settles both directions, so its denials are all up-phase")
	return tb
}
