package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// testPerms keeps unit tests brisk; the benches and ftbench run the
// paper's full 100.
const testPerms = 25

func TestFig9PaperClaimsHold(t *testing.T) {
	a, err := Fig9a(testPerms, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig9b(testPerms, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Fig9c(testPerms, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bad := CheckPaperClaims(a, b, c); len(bad) != 0 {
		t.Fatalf("claim violations:\n%s", strings.Join(bad, "\n"))
	}
	// Local degrades with depth (Section 5: "the conventional scheduler's
	// schedulability ratio decreases as the number of levels increases").
	rows := Fig9d(a, b, c)
	local := map[int]float64{}
	global := map[int]float64{}
	for _, r := range rows {
		if r.Scheduler == "Local" {
			local[r.Levels] = r.Mean
		} else if r.Scheduler == "Global" {
			global[r.Levels] = r.Mean
		}
	}
	if !(local[2] > local[3] && local[3] > local[4]) {
		t.Fatalf("local means do not decrease with depth: %v", local)
	}
	// Global degrades only mildly ("negligible drop-off"): < 15 points
	// from 2-level to 4-level vs local's larger fall.
	if global[2]-global[4] > 0.15 {
		t.Fatalf("global drop-off too large: %v", global)
	}
	if (local[2] - local[4]) <= (global[2] - global[4]) {
		t.Fatalf("local should degrade faster than global: local %v global %v", local, global)
	}
}

func TestFig9TableRendering(t *testing.T) {
	r, err := RunFig9(Fig9Config{Name: "t", Levels: 2, Widths: []int{8}, Permutations: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := r.Table().String()
	for _, want := range []string{"64(8^2)", "Local mean", "Global mean", "%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	if got := r.Schedulers(); len(got) != 2 || got[0] != "Local" || got[1] != "Global" {
		t.Fatalf("schedulers = %v", got)
	}
	if got := r.Widths(); len(got) != 1 || got[0] != 8 {
		t.Fatalf("widths = %v", got)
	}
}

func TestFig9dAggregation(t *testing.T) {
	r, err := RunFig9(Fig9Config{Name: "t", Levels: 2, Widths: []int{8, 16}, Permutations: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rows := Fig9d(r)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, row := range rows {
		// The aggregate is the mean of the two per-size means.
		var sum float64
		n := 0
		for _, p := range r.Points {
			if p.Scheduler == row.Scheduler {
				sum += p.Ratio.Mean
				n++
			}
		}
		if want := sum / float64(n); row.Mean != want {
			t.Fatalf("%s: mean %v want %v", row.Scheduler, row.Mean, want)
		}
	}
	if !strings.Contains(Fig9dTable(rows).String(), "Figure 9(d)") {
		t.Fatal("fig9d table title missing")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows, err := Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SingleNS != r.PaperSingleNS {
			t.Errorf("w=%d: single %v != paper %v", r.SwitchWidth, r.SingleNS, r.PaperSingleNS)
		}
		if r.AllNS != r.PaperAllNS {
			t.Errorf("w=%d: all %v != paper %v", r.SwitchWidth, r.AllNS, r.PaperAllNS)
		}
		// Cycle-exact makespan within 5% above the throughput accounting.
		if r.MakespanNS < r.AllNS || r.MakespanNS > 1.05*r.AllNS {
			t.Errorf("w=%d: makespan %v vs all %v", r.SwitchWidth, r.MakespanNS, r.AllNS)
		}
		if r.Granted <= 0 || r.Granted > r.Total {
			t.Errorf("w=%d: granted %d/%d", r.SwitchWidth, r.Granted, r.Total)
		}
	}
	if !strings.Contains(Table1Table(rows).String(), "Table 1") {
		t.Fatal("table1 rendering")
	}
}

func TestAblationPortPolicy(t *testing.T) {
	cells, err := AblationPortPolicy(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 9 { // 3 grid points x 3 policies
		t.Fatalf("cells = %d", len(cells))
	}
	if !strings.Contains(AblationTable("x", cells).String(), "first-fit") {
		t.Fatal("rendering")
	}
}

func TestAblationRollback(t *testing.T) {
	cells, err := AblationRollback(25, 1)
	if err != nil {
		t.Fatal(err)
	}
	byVariant := map[string][]float64{}
	for _, c := range cells {
		byVariant[c.Variant] = append(byVariant[c.Variant], c.Ratio.Mean)
	}
	lmNo := byVariant["level-major, no-rollback (paper)"]
	lmRb := byVariant["level-major, rollback"]
	rmNo := byVariant["request-major, no-rollback"]
	rmRb := byVariant["request-major, rollback"]
	if len(lmNo) == 0 || len(lmRb) != len(lmNo) || len(rmNo) != len(lmNo) || len(rmRb) != len(lmNo) {
		t.Fatalf("variants missing: %v", byVariant)
	}
	for i := range lmNo {
		// Under level-major traversal, rollback provably cannot change
		// the grant set: released channels at levels < h are never
		// re-examined once the sweep has passed them.
		if lmNo[i] != lmRb[i] {
			t.Fatalf("level-major rollback changed the ratio: %v vs %v", lmNo[i], lmRb[i])
		}
		// Request-major without rollback equals level-major without
		// rollback (same decisions, different schedule).
		if rmNo[i] != lmNo[i] {
			t.Fatalf("traversals diverged without rollback: %v vs %v", rmNo[i], lmNo[i])
		}
		// Request-major with rollback can only help on average; allow a
		// hair of slack per grid point.
		if rmRb[i] < rmNo[i]-0.01 {
			t.Fatalf("request-major rollback hurt: %v vs %v", rmRb[i], rmNo[i])
		}
	}
}

func TestAblationOrdering(t *testing.T) {
	cells, err := AblationOrdering(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 9 {
		t.Fatalf("cells = %d", len(cells))
	}
}

func TestComplexityCounts(t *testing.T) {
	cells, err := ComplexityCounts(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// For each grid point: local sequential steps/request approach twice
	// the global scheduler's (the paper's 2l vs l claim).
	byKey := map[[2]int]map[string]float64{}
	for _, c := range cells {
		k := [2]int{c.Levels, c.Width}
		if byKey[k] == nil {
			byKey[k] = map[string]float64{}
		}
		byKey[k][c.Scheduler] = c.StepsPerReq
	}
	for k, m := range byKey {
		if m["Local"] <= 0 || m["Global"] <= 0 {
			t.Fatalf("%v: missing counts %v", k, m)
		}
		if m["Local"] < 1.5*m["Global"] {
			t.Fatalf("%v: local steps %.2f not ~2x global %.2f", k, m["Local"], m["Global"])
		}
	}
	if !strings.Contains(ComplexityTable(cells).String(), "steps/req") {
		t.Fatal("rendering")
	}
}

func TestExtOptimalDominates(t *testing.T) {
	cells, err := ExtOptimal(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	byGrid := map[[2]int]map[string]float64{}
	for _, c := range cells {
		k := [2]int{c.Levels, c.Width}
		if byGrid[k] == nil {
			byGrid[k] = map[string]float64{}
		}
		byGrid[k][c.Variant] = c.Ratio.Mean
	}
	for k, m := range byGrid {
		if m["Optimal"] != 1 {
			t.Fatalf("%v: optimal mean %v != 100%%", k, m["Optimal"])
		}
		if m["Optimal"] < m["Global"] || m["Global"] < m["Local"] {
			t.Fatalf("%v: ordering violated: %v", k, m)
		}
	}
}

func TestExtTraffic(t *testing.T) {
	cells, err := ExtTraffic(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 18 { // 9 patterns x 2 schedulers
		t.Fatalf("cells = %d", len(cells))
	}
	// Neighbor traffic is light (mostly same-switch or one level): both
	// schedulers near 100%.
	for _, c := range cells {
		if c.Pattern == traffic.Neighbor && c.Ratio.Mean < 0.95 {
			t.Fatalf("neighbor ratio %v unexpectedly low for %s", c.Ratio.Mean, c.Scheduler)
		}
	}
	if !strings.Contains(TrafficTable(cells).String(), "bit-reversal") {
		t.Fatal("rendering")
	}
}

func TestExtSlimDegradesWithW(t *testing.T) {
	cells, err := ExtSlim(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	means := map[int]float64{}
	for _, c := range cells {
		if c.Scheduler == "Global" {
			means[c.W] = c.Ratio.Mean
		}
	}
	// Fewer parents, fewer paths: monotone non-decreasing in w.
	if !(means[2] < means[4] && means[4] < means[8]) {
		t.Fatalf("slim means not increasing with w: %v", means)
	}
	if !strings.Contains(SlimTable(cells).String(), "w/m") {
		t.Fatal("rendering")
	}
}

// extDynamicSeed1 is E4's seed-1 sweep at full precision. It pins the run
// exactly: determinism, near-zero Global blocking at the lightest load, and
// blocking and utilization that grow with load are all read off it.
const extDynamicSeed1 = `[{Scheduler:Local ArrivalRate:0.5 Blocking:0.3704433497536946 MeanActive:29.685010555946516 Utilization:0.053351100677339905} ` +
	`{Scheduler:Global ArrivalRate:0.5 Blocking:0 MeanActive:47.5629390278168 Utilization:0.08829494218003653} ` +
	`{Scheduler:Local ArrivalRate:1 Blocking:0.4222047106207863 MeanActive:43.14683477804045 Utilization:0.07744668196195605} ` +
	`{Scheduler:Global ArrivalRate:1 Blocking:0.0002639218791237794 MeanActive:75.89891792029559 Utilization:0.13967326608823788} ` +
	`{Scheduler:Local ArrivalRate:2 Blocking:0.442905686991088 MeanActive:57.800987369365906 Utilization:0.10283534343543631} ` +
	`{Scheduler:Global ArrivalRate:2 Blocking:0.0009664325752206688 MeanActive:104.1700277044005 Utilization:0.19118980937117452} ` +
	`{Scheduler:Local ArrivalRate:4 Blocking:0.4543548478494928 MeanActive:64.31314104380348 Utilization:0.11344721083966114} ` +
	`{Scheduler:Global ArrivalRate:4 Blocking:0.0015291385852636348 MeanActive:117.60644503596308 Utilization:0.21550146542447754} ` +
	`{Scheduler:Local ArrivalRate:8 Blocking:0.4563187729243081 MeanActive:64.81265977548071 Utilization:0.11441438595851394} ` +
	`{Scheduler:Global ArrivalRate:8 Blocking:0.002112049799911072 MeanActive:120.00305691418409 Utilization:0.21991669691737994}]`

func TestExtDynamic(t *testing.T) {
	cells, err := ExtDynamic(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%+v", cells); got != extDynamicSeed1 {
		t.Fatalf("E4 cells moved:\n got %s\nwant %s", got, extDynamicSeed1)
	}
	// At the heaviest load, Global blocks no more than Local.
	var lastLocal, lastGlobal float64
	for _, c := range cells {
		if c.ArrivalRate == 8 {
			if c.Scheduler == "Local" {
				lastLocal = c.Blocking
			} else {
				lastGlobal = c.Blocking
			}
		}
	}
	if lastGlobal > lastLocal {
		t.Fatalf("global blocking %v above local %v at peak load", lastGlobal, lastLocal)
	}
	if !strings.Contains(DynamicTable(cells).String(), "blocking") {
		t.Fatal("rendering")
	}
}

func TestExtSwitchSim(t *testing.T) {
	cells, err := ExtSwitchSim(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Global.Mean <= c.Wave.Mean || c.Global.Mean <= c.Sequential.Mean {
			t.Fatalf("N=%d: global %v not above local variants (%v, %v)",
				c.Nodes, c.Global.Mean, c.Sequential.Mean, c.Wave.Mean)
		}
	}
	if !strings.Contains(SwitchSimTable(cells).String(), "distributed") {
		t.Fatal("rendering")
	}
}

func TestRunSuiteSmoke(t *testing.T) {
	var sb strings.Builder
	violations, err := RunSuite(&sb, SuiteConfig{Permutations: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Figure 9(a)", "Figure 9(b)", "Figure 9(c)", "Figure 9(d)",
		"Table 1", "Ablation A1", "Ablation A2", "Ablation A3",
		"Extension E1", "Extension E2", "Extension E3", "Extension E4",
		"Extension E5", "Extension E6", "Extension E7", "Extension E8",
		"Extension E9", "Extension E10", "Extension E11", "Extension E12", "Extension E13", "Extension E14", "Extension E15",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("suite output missing %q", want)
		}
	}
	// With only 5 permutations the min/max claims may wobble, so the
	// violation list is informational here; just make sure the checker
	// ran and the suite completed.
	_ = violations
}

func TestRunSuiteSkipExtensions(t *testing.T) {
	var sb strings.Builder
	if _, err := RunSuite(&sb, SuiteConfig{Permutations: 3, Seed: 1, SkipExtensions: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "Extension") {
		t.Fatal("extensions ran despite SkipExtensions")
	}
	if !strings.Contains(out, "Table 1") {
		t.Fatal("core evaluation missing")
	}
}

func TestRunFig9RejectsBadShape(t *testing.T) {
	if _, err := RunFig9(Fig9Config{Levels: 0, Widths: []int{4}}); err == nil {
		t.Fatal("bad levels accepted")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	seq, err := RunFig9(Fig9Config{Name: "s", Levels: 3, Widths: []int{4, 6, 8}, Permutations: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunFig9(Fig9Config{Name: "s", Levels: 3, Widths: []int{4, 6, 8}, Permutations: 15, Seed: 9, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Points) != len(par.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(seq.Points), len(par.Points))
	}
	for i := range seq.Points {
		if seq.Points[i] != par.Points[i] {
			t.Fatalf("point %d differs:\n%+v\n%+v", i, seq.Points[i], par.Points[i])
		}
	}
}

func TestRunSuiteOnlyFilter(t *testing.T) {
	var sb strings.Builder
	if _, err := RunSuite(&sb, SuiteConfig{Permutations: 3, Seed: 1, Only: "e13", Workers: 2}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Extension E13") {
		t.Fatal("selected component missing")
	}
	for _, absent := range []string{"Figure 9(a)", "Table 1", "Extension E12", "Ablation A1"} {
		if strings.Contains(out, absent) {
			t.Fatalf("filter leaked %q", absent)
		}
	}
}

func TestRunSuiteParallelMatchesSequentialOutput(t *testing.T) {
	// "e1" selects Table 1 plus components E1 and E10-E14 -- several
	// independent extensions, enough to exercise the pool while staying
	// fast under -race.
	run := func(workers int) string {
		var sb strings.Builder
		if _, err := RunSuite(&sb, SuiteConfig{Permutations: 3, Seed: 1, Workers: workers, Only: "e1"}); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	seq := run(1)
	if !strings.Contains(seq, "Extension E14") || !strings.Contains(seq, "Extension E10") {
		t.Fatalf("filter selected unexpectedly little:\n%s", seq)
	}
	if seq != run(4) {
		t.Fatal("parallel suite output differs from sequential")
	}
}
