package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/topology"
)

func TestWriteFilesCSVAndJSON(t *testing.T) {
	dir := t.TempDir()
	if err := writeFiles(dir, ".csv", 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := writeFiles(dir, ".json", 3, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig9a.csv", "fig9b.csv", "fig9c.csv", "fig9d.csv", "table1.csv",
		"fig9a.json", "table1.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s empty", name)
		}
		if strings.HasSuffix(name, ".json") && !strings.Contains(string(data), `"rows"`) {
			t.Fatalf("%s not JSON: %.60s", name, data)
		}
	}
}

func TestWriteFilesBadDir(t *testing.T) {
	if err := writeFiles("/dev/null/subdir", ".csv", 1, 1); err == nil {
		t.Fatal("unwritable dir accepted")
	}
}

func TestChaosBench(t *testing.T) {
	var out strings.Builder
	err := chaosBench(&out, chaosBenchConfig{
		fabricBenchConfig: fabricBenchConfig{
			Levels: 3, Children: 4, Parents: 2,
			Clients: 8, Batch: 4, Open: 2,
			MaxWait: 200 * time.Microsecond, Duration: 120 * time.Millisecond, Seed: 1,
		},
		Rates: []float64{0, 0.08},
		Cycle: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"chaos FT(3,4,2)", "rate", "sched", "unacct", "0.000", "0.080"} {
		if !strings.Contains(got, want) {
			t.Errorf("chaos summary missing %q:\n%s", want, got)
		}
	}
	// Every rate row carries the settled repair identity in its fourth
	// column: unaccounted 0.
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 4 || strings.Fields(lines[1])[3] != "unacct" {
		t.Fatalf("chaos table shape:\n%s", got)
	}
	for _, row := range lines[2:] {
		if f := strings.Fields(row); f[3] != "0" {
			t.Errorf("row %q: unaccounted %s, want 0", row, f[3])
		}
	}
}

// brokenFabric is a settled healer whose invariants report err.
type brokenFabric struct{ err error }

func (b brokenFabric) RepairAll() int         { return 0 }
func (b brokenFabric) Stats() fabric.Stats    { return fabric.Stats{} }
func (b brokenFabric) CheckInvariants() error { return b.err }

// TestSettleFailsOnRepairIdentity pins what makes -chaos and -gray exit
// non-zero: a settled fabric that fails CheckInvariants — here, one whose
// revocations do not all resolve.
func TestSettleFailsOnRepairIdentity(t *testing.T) {
	lost := errors.New("fabric: Revoked vs Repaired + RepairFailed + RepairAborted + PendingRepairs: 5 != 4")
	if _, err := settle(brokenFabric{}); err != nil {
		t.Fatalf("a consistent fabric rejected: %v", err)
	} else if _, err := settle(brokenFabric{lost}); err != lost {
		t.Fatalf("err = %v, want %v", err, lost)
	}
}

// churnTable runs churnBench and returns its output and the churn/epoch
// column by discipline.
func churnTable(t *testing.T, cfg churnBenchConfig) (string, map[string]float64) {
	t.Helper()
	var out strings.Builder
	if err := churnBench(&out, cfg); err != nil {
		t.Fatal(err)
	}
	churn := map[string]float64{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 5 && f[0] != "discipline" {
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			churn[f[0]] = v
		}
	}
	return out.String(), churn
}

// TestChurnBenchDeterministic: the -churn table is a pure function of
// the seed, and delta epochs move fewer routes than batch replay.
func TestChurnBenchDeterministic(t *testing.T) {
	cfg := churnBenchConfig{Levels: 3, Children: 4, Parents: 4,
		Rate: 8, Life: 4, Epochs: 40, Reuse: 2, Seed: 1}
	first, churn := churnTable(t, cfg)
	if again, _ := churnTable(t, cfg); again != first {
		t.Errorf("same seed, different output:\n%s\n---\n%s", first, again)
	}
	other := cfg
	other.Seed = 2
	if diff, _ := churnTable(t, other); diff == first {
		t.Errorf("seeds 1 and 2 print the same table:\n%s", first)
	}
	if len(churn) != 3 {
		t.Fatalf("want 3 disciplines, parsed %v from:\n%s", churn, first)
	}
	if inc, replay := churn["incremental"], churn["batch-replay"]; !(inc > 0 && inc < replay) {
		t.Errorf("churn/epoch incremental %.2f, batch-replay %.2f: want 0 < incremental < replay", inc, replay)
	}
}

func TestChurnBenchValidation(t *testing.T) {
	base := churnBenchConfig{Levels: 2, Children: 4, Parents: 4, Rate: 4, Life: 2, Epochs: 4}
	for name, mutate := range map[string]func(*churnBenchConfig){
		"rate 0":         func(c *churnBenchConfig) { c.Rate = 0 },
		"life 0":         func(c *churnBenchConfig) { c.Life = 0 },
		"negative reuse": func(c *churnBenchConfig) { c.Reuse = -1 },
	} {
		cfg := base
		mutate(&cfg)
		if err := churnBench(os.Stdout, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestParseRates(t *testing.T) {
	rates, err := parseRates(" 0, 0.01,0.1 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 3 || rates[0] != 0 || rates[1] != 0.01 || rates[2] != 0.1 {
		t.Fatalf("rates = %v", rates)
	}
	for _, bad := range []string{"", "x", "-0.1", "1.5", ","} {
		if _, err := parseRates(bad); err == nil {
			t.Errorf("parseRates(%q) accepted", bad)
		}
	}
}

func TestChaosBenchValidation(t *testing.T) {
	base := fabricBenchConfig{Levels: 2, Children: 4, Parents: 4,
		Clients: 1, Open: 1, Duration: time.Millisecond}
	if err := chaosBench(os.Stdout, chaosBenchConfig{fabricBenchConfig: base, Rates: nil, Cycle: time.Millisecond}); err == nil {
		t.Error("empty rates accepted")
	}
	if err := chaosBench(os.Stdout, chaosBenchConfig{fabricBenchConfig: base, Rates: []float64{0.1}}); err == nil {
		t.Error("zero cycle accepted")
	}
	if err := chaosBench(os.Stdout, chaosBenchConfig{Rates: []float64{0.1}, Cycle: time.Millisecond}); err == nil {
		t.Error("zero clients accepted")
	}
	bad := base
	bad.Levels = 0
	if err := chaosBench(os.Stdout, chaosBenchConfig{fabricBenchConfig: bad, Rates: []float64{0.1}, Cycle: time.Millisecond}); err == nil {
		t.Error("bad topology accepted")
	}
}

// TestClosedLoopCountsTimeouts: a wedged manager (a batch that never
// fills, a flush timer that never fires) must not hang the loop or abort
// it — every attempt ends as a counted timeout.
func TestClosedLoopCountsTimeouts(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	fab, err := fabric.New(fabric.Config{Tree: tree, BatchSize: 1 << 20, MaxWait: time.Hour,
		AdmitTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := closedLoop(fab, tree, fabricBenchConfig{Clients: 1, Open: 1,
		Duration: 50 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if counts.timedOut == 0 || counts.admitted != 0 {
		t.Errorf("counts = %+v, want only timeouts", counts)
	}
	if err := fab.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}
