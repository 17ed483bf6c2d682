package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/tbwp"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TBWPCell is one row of the turn-back baseline study.
type TBWPCell struct {
	Levels, Width, Nodes int
	Scheduler            string
	Ratio                stats.Summary
	// LateralsPerGrant is the mean number of top-ring hops consumed per
	// granted TBWP circuit (0 for the other schedulers).
	LateralsPerGrant float64
}

// ExtTBWP (E6) compares the Turn-Back-When-Possible adaptive baseline
// (Kariniemi & Nurmi, discussed in the paper's introduction) against the
// plain local scheduler and Level-wise on the reduced grid. TBWP gets the
// extra top-level ring the other schedulers don't have, and still loses
// to global information.
func ExtTBWP(perms int, seed int64) ([]TBWPCell, error) {
	if perms == 0 {
		perms = DefaultPermutations
	}
	var cells []TBWPCell
	for _, g := range ablationGrid {
		tree, err := topology.New(g[0], g[1], g[1])
		if err != nil {
			return nil, err
		}
		batches := traffic.NewGenerator(tree.Nodes(), seed+int64(g[0])).Permutations(perms)
		tb := make([]float64, 0, perms)
		lateralSum, grantSum := 0.0, 0.0
		st := linkstate.New(tree)
		for k, batch := range batches {
			st.Reset()
			s := &tbwp.Scheduler{Policy: core.RandomFit, Seed: seed + int64(k)}
			res := s.Schedule(st, batch)
			if err := tbwp.VerifyWalks(tree, res); err != nil {
				return nil, fmt.Errorf("experiments: TBWP: %v", err)
			}
			tb = append(tb, res.Ratio())
			lateralSum += float64(res.LateralsUsed)
			grantSum += float64(res.Granted)
		}
		var ratio [2]stats.Summary // Local, Global
		for i, spec := range DefaultSchedulers() {
			if ratio[i], err = measure(tree, spec, batches, nil, nil); err != nil {
				return nil, fmt.Errorf("experiments: TBWP %s: %v", spec.Label, err)
			}
		}
		lat := 0.0
		if grantSum > 0 {
			lat = lateralSum / grantSum
		}
		cells = append(cells,
			TBWPCell{g[0], g[1], tree.Nodes(), "Local", ratio[0], 0},
			TBWPCell{g[0], g[1], tree.Nodes(), "TBWP", stats.Summarize(tb), lat},
			TBWPCell{g[0], g[1], tree.Nodes(), "Global", ratio[1], 0},
		)
	}
	return cells, nil
}

// TBWPTable renders the turn-back study.
func TBWPTable(cells []TBWPCell) *report.Table {
	tb := report.NewTable("Extension E6: Turn-Back-When-Possible baseline (top-level ring)",
		"FT(l,w)", "scheduler", "mean", "min", "max", "laterals/grant")
	for _, c := range cells {
		lat := ""
		if c.Scheduler == "TBWP" {
			lat = fmt.Sprintf("%.3f", c.LateralsPerGrant)
		}
		tb.AddRow(fmt.Sprintf("FT(%d,%d)", c.Levels, c.Width), c.Scheduler,
			report.Percent(c.Ratio.Mean), report.Percent(c.Ratio.Min), report.Percent(c.Ratio.Max), lat)
	}
	tb.AddNote("TBWP additionally uses a top-level ring the other schedulers do not have")
	return tb
}

// RoundsCell is one row of the rounds-to-completion study.
type RoundsCell struct {
	Levels, Width, Nodes int
	Scheduler            string
	Rounds               stats.Summary // rounds needed to grant a full permutation
}

// ExtRounds (E7) measures time-division completion: a permutation is
// scheduled in rounds, each round a fresh network pass over the still-
// ungranted requests, until everything has been delivered — the number
// of rounds is the slowdown a communication phase suffers from imperfect
// schedulability. The optimal scheduler needs exactly one round on
// permutations; Level-wise needs about two; the local scheduler three or
// more.
func ExtRounds(perms int, seed int64) ([]RoundsCell, error) {
	if perms == 0 {
		perms = DefaultPermutations
	}
	var cells []RoundsCell
	for _, g := range ablationGrid {
		tree, err := topology.New(g[0], g[1], g[1])
		if err != nil {
			return nil, err
		}
		gen := traffic.NewGenerator(tree.Nodes(), seed+int64(g[0]*10))
		batches := gen.Permutations(perms)
		for _, spec := range DefaultSchedulers() {
			rounds := make([]float64, 0, perms)
			st := linkstate.New(tree)
			for _, batch := range batches {
				r, err := RoundsToComplete(tree, st, spec.Make(), batch)
				if err != nil {
					return nil, err
				}
				rounds = append(rounds, float64(r))
			}
			cells = append(cells, RoundsCell{g[0], g[1], tree.Nodes(), spec.Label, stats.Summarize(rounds)})
		}
	}
	return cells, nil
}

// RoundsToComplete schedules the batch in fresh-network rounds until all
// requests are granted and returns the round count. A round that makes
// no progress aborts with an error (cannot happen for the built-in
// schedulers: a single request on an empty network always routes).
func RoundsToComplete(tree *topology.Tree, st *linkstate.State, s core.Scheduler, batch []core.Request) (int, error) {
	remaining := batch
	rounds := 0
	for len(remaining) > 0 {
		st.Reset()
		res := s.Schedule(st, remaining)
		if err := core.Verify(tree, res); err != nil {
			return 0, err
		}
		rounds++
		if res.Granted == 0 {
			return 0, fmt.Errorf("experiments: %s made no progress with %d requests left", s.Name(), len(remaining))
		}
		var next []core.Request
		for i := range res.Outcomes {
			if !res.Outcomes[i].Granted {
				next = append(next, res.Outcomes[i].Request)
			}
		}
		remaining = next
	}
	return rounds, nil
}

// RoundsTable renders the rounds-to-completion study.
func RoundsTable(cells []RoundsCell) *report.Table {
	tb := report.NewTable("Extension E7: rounds to deliver a full permutation (time-division)",
		"FT(l,w)", "scheduler", "mean rounds", "min", "max")
	for _, c := range cells {
		tb.AddRow(fmt.Sprintf("FT(%d,%d)", c.Levels, c.Width), c.Scheduler,
			fmt.Sprintf("%.2f", c.Rounds.Mean), fmt.Sprintf("%.0f", c.Rounds.Min), fmt.Sprintf("%.0f", c.Rounds.Max))
	}
	tb.AddNote("the optimal scheduler needs exactly 1 round on any permutation (rearrangeability)")
	return tb
}
