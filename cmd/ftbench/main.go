// Command ftbench regenerates the paper's complete evaluation: Figure
// 9(a)–(d), Table 1, the Section 4 complexity comparison, and (unless
// -paper-only) the ablations and extensions indexed in DESIGN.md.
//
// Usage:
//
//	ftbench [-perms 100] [-seed 1] [-paper-only] [-csv dir]
//
// With -csv, each figure/table is additionally written as a CSV file into
// the given directory for external plotting.
//
// With -cpuprofile / -memprofile, the run writes pprof profiles (CPU
// sampled across the whole run, heap snapshotted at exit after a final
// GC) for `go tool pprof`; they compose with every mode.
//
// ftbench reports no rate and no latency of its own: how fast the
// serving stack runs is measured by bench/ (`bash bench/run.sh
// --workload fabric_churn|fed_degraded|http_rt|batch_perm`, schema in
// BENCHMARK.json). The three modes below are correctness harnesses whose
// output is a verdict, all driven by one closed-loop client pool that
// the -fabric-* flags size (tree, clients, epoch batching);
// -fabric-scheduler names the admission engine in internal/sched's
// grammar (e.g. "parallel,mode=shard,workers=4,steal").
//
// With -chaos, closed-loop clients churn against internal/fabric while a
// seeded fault/repair schedule fails and repairs links mid-run, swept
// over the -chaos-rates link failure rates; each rate reports the
// schedulability ratio and the fabric's repair-latency histogram
// (EXPERIMENTS.md E17), and the run fails unless the occupancy gauge
// equals utilization at every poll and revoked = repaired +
// repair_failed + repair_aborted once the fabric has healed.
//
// With -gray, ftbench runs the gray-failure resilience sweep
// (EXPERIMENTS.md E21): seeded *flaky* links flap up and down on a fixed
// clock while closed-loop clients run, exercising flap damping, the
// repair retry budget, and reuse-cost-aware repair placement; each
// -gray-rates point runs with reuse-cost scoring off and on over
// bit-identical churn, under the same accounting checks as -chaos plus
// the retry-budget bound, and a final two-plane point injects a
// slow-but-alive DegradedPlane process and reports the health score and
// breaker state.
//
// With -churn, ftbench runs the arrival/departure churn comparison
// (EXPERIMENTS.md E20): one seeded workload of circuit arrivals with
// exponential lifetimes served by batch-replay, incremental, and
// incremental+reuse-cost scheduling, reporting schedulability and route
// churn per epoch — a table that depends on the seed alone.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/report"
)

func main() {
	perms := flag.Int("perms", experiments.DefaultPermutations, "random permutations per test point (paper: 100)")
	seed := flag.Int64("seed", 1, "root seed for all workloads")
	paperOnly := flag.Bool("paper-only", false, "run only the paper's own evaluation (Figure 9, Table 1)")
	workers := flag.Int("workers", 4, "parallel workers for the sweeps and extensions")
	only := flag.String("only", "", "run only suite components whose id contains this (e.g. e12, a1, fig9, table1)")
	csvDir := flag.String("csv", "", "directory to additionally write CSV files into")
	jsonDir := flag.String("json", "", "directory to additionally write JSON files into")
	fabricLevels := flag.Int("fabric-levels", 3, "chaos/gray/churn: switch levels l")
	fabricChildren := flag.Int("fabric-children", 8, "chaos/gray/churn: children per switch m")
	fabricParents := flag.Int("fabric-parents", 8, "chaos/gray/churn: parents per switch w")
	fabricClients := flag.Int("fabric-clients", 64, "chaos/gray: concurrent closed-loop clients")
	fabricBatch := flag.Int("fabric-batch", fabric.DefaultBatchSize, "chaos/gray: epoch flush threshold (1 disables batching)")
	fabricOpen := flag.Int("fabric-open", 4, "chaos/gray: circuits each client holds open")
	fabricMaxWait := flag.Duration("fabric-maxwait", 500*time.Microsecond, "chaos/gray: epoch flush timer")
	fabricDuration := flag.Duration("fabric-duration", 2*time.Second, "chaos/gray: run length")
	fabricSched := flag.String("fabric-scheduler", "", "chaos/gray: admission engine spec (internal/sched registry grammar; \"\" = fabric default)")
	fabricTimeout := flag.Duration("fabric-timeout", 0, "chaos/gray: per-Connect admission timeout, counted in the timeouts column (0 = 100ms)")
	churnMode := flag.Bool("churn", false, "run the arrival/departure churn comparison: batch-replay vs incremental (delta-epoch) scheduling on one seeded workload")
	churnRate := flag.Int("churn-rate", 16, "churn: fresh arrivals per epoch")
	churnLife := flag.Float64("churn-life", 8, "churn: mean circuit lifetime in epochs (exponential)")
	churnEpochs := flag.Int("churn-epochs", 200, "churn: epochs to simulate")
	churnReuse := flag.Int("churn-reuse", 4, "churn: reuse-cost cap K for the incremental+reuse discipline (0 skips it)")
	chaosMode := flag.Bool("chaos", false, "run the fault-injection sweep: fabric closed-loop clients plus a seeded mid-run fault/repair schedule")
	chaosRates := flag.String("chaos-rates", "0,0.01,0.05,0.1", "chaos: comma-separated link failure rates p to sweep")
	chaosCycle := flag.Duration("chaos-cycle", 20*time.Millisecond, "chaos: fault/repair alternation period")
	grayMode := flag.Bool("gray", false, "run the gray-failure sweep: seeded flaky links flapping mid-run, with flap damping, retry budgets, and a degraded-plane federation point")
	grayRates := flag.String("gray-rates", "0,0.02,0.05,0.1", "gray: comma-separated flaky link selection rates p to sweep")
	grayDuty := flag.Float64("gray-duty", 0.5, "gray: per-step down probability of each flaky link")
	grayStep := flag.Duration("gray-step", 2*time.Millisecond, "gray: flaky process clock period")
	grayReuse := flag.Int("gray-reuse", 4, "gray: reuse-cost cap K for the second arm (0 skips it)")
	grayThreshold := flag.Float64("gray-threshold", 3, "gray: flap-damping quarantine threshold")
	grayProbation := flag.Duration("gray-probation", 100*time.Millisecond, "gray: quarantine probation window")
	grayBudget := flag.Float64("gray-budget", 200, "gray: repair retry budget tokens per second")
	grayBurst := flag.Int("gray-burst", 64, "gray: repair retry budget burst")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-GC, at exit) to this file")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
		os.Exit(1)
	}
	// os.Exit skips deferred calls; route every exit through this so the
	// CPU profile is flushed and the heap profile written.
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	// done ends a harness mode: report its error, if any, and exit.
	done := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			exit(1)
		}
		exit(0)
	}
	// The one closed-loop client pool -chaos and -gray share (-gray names
	// its own engines and ignores Scheduler).
	loop := fabricBenchConfig{
		Levels: *fabricLevels, Children: *fabricChildren, Parents: *fabricParents,
		Clients: *fabricClients, Batch: *fabricBatch, Open: *fabricOpen,
		MaxWait: *fabricMaxWait, Duration: *fabricDuration, Seed: *seed,
		Timeout: *fabricTimeout, Scheduler: *fabricSched,
	}
	switch {
	case *churnMode:
		done(churnBench(os.Stdout, churnBenchConfig{
			Levels: *fabricLevels, Children: *fabricChildren, Parents: *fabricParents,
			Rate: *churnRate, Life: *churnLife, Epochs: *churnEpochs,
			Reuse: *churnReuse, Seed: *seed,
		}))
	case *grayMode:
		rates, err := parseRates(*grayRates)
		if err == nil {
			err = grayBench(os.Stdout, grayBenchConfig{
				fabricBenchConfig: loop,
				Rates:             rates, Duty: *grayDuty, Step: *grayStep, Reuse: *grayReuse,
				FlapThreshold: *grayThreshold, Probation: *grayProbation,
				BudgetRate: *grayBudget, BudgetBurst: *grayBurst,
			})
		}
		done(err)
	case *chaosMode:
		rates, err := parseRates(*chaosRates)
		if err == nil {
			err = chaosBench(os.Stdout, chaosBenchConfig{
				fabricBenchConfig: loop, Rates: rates, Cycle: *chaosCycle,
			})
		}
		done(err)
	}

	if *csvDir != "" {
		if err := writeFiles(*csvDir, ".csv", *perms, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			exit(1)
		}
	}
	if *jsonDir != "" {
		if err := writeFiles(*jsonDir, ".json", *perms, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			exit(1)
		}
	}

	violations, err := experiments.RunSuite(os.Stdout, experiments.SuiteConfig{
		Permutations:   *perms,
		Seed:           *seed,
		SkipExtensions: *paperOnly,
		Workers:        *workers,
		Only:           *only,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
		exit(1)
	}
	if len(violations) > 0 {
		exit(2)
	}
	exit(0)
}

// startProfiles enables the requested pprof outputs and returns a stop
// function that finishes the CPU profile and writes the heap profile;
// every exit path must call it so the profiles are complete on disk.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle the live heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: memprofile: %v\n", err)
		}
	}, nil
}

// writeFiles exports the core evaluation tables in the given format
// (".csv" or ".json").
func writeFiles(dir, ext string, perms int, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, tb *report.Table) error {
		f, err := os.Create(filepath.Join(dir, name+ext))
		if err != nil {
			return err
		}
		defer f.Close()
		if ext == ".json" {
			return tb.WriteJSON(f)
		}
		return tb.WriteCSV(f)
	}
	a, err := experiments.Fig9a(perms, seed)
	if err != nil {
		return err
	}
	b, err := experiments.Fig9b(perms, seed)
	if err != nil {
		return err
	}
	c, err := experiments.Fig9c(perms, seed)
	if err != nil {
		return err
	}
	if err := write("fig9a", a.Table()); err != nil {
		return err
	}
	if err := write("fig9b", b.Table()); err != nil {
		return err
	}
	if err := write("fig9c", c.Table()); err != nil {
		return err
	}
	if err := write("fig9d", experiments.Fig9dTable(experiments.Fig9d(a, b, c))); err != nil {
		return err
	}
	t1, err := experiments.Table1(seed)
	if err != nil {
		return err
	}
	return write("table1", experiments.Table1Table(t1))
}
