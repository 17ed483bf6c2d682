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
// repair retry bound, and reuse-cost-aware repair placement; each
// -gray-rates point runs with reuse-cost scoring off and on over
// bit-identical churn, under the same accounting checks as -chaos plus
// the retry bound, and a final two-plane point injects a slow-but-alive
// DegradedPlane process and reports the health score and breaker state.
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

// options holds every ftbench flag's value.
type options struct {
	perms          int
	seed           int64
	paperOnly      bool
	workers        int
	only           string
	csvDir         string
	jsonDir        string
	fabricLevels   int
	fabricChildren int
	fabricParents  int
	fabricClients  int
	fabricBatch    int
	fabricOpen     int
	fabricMaxWait  time.Duration
	fabricDuration time.Duration
	fabricSched    string
	fabricTimeout  time.Duration
	churnMode      bool
	churnRate      int
	churnLife      float64
	churnEpochs    int
	churnReuse     int
	chaosMode      bool
	chaosRates     string
	chaosCycle     time.Duration
	grayMode       bool
	grayRates      string
	grayDuty       float64
	grayStep       time.Duration
	grayReuse      int
	grayThreshold  float64
	cpuProfile     string
	memProfile     string
}

// bindFlags registers ftbench's flags on fs and returns where their
// values land once fs is parsed.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.IntVar(&o.perms, "perms", experiments.DefaultPermutations, "random permutations per test point (paper: 100)")
	fs.Int64Var(&o.seed, "seed", 1, "root seed for all workloads")
	fs.BoolVar(&o.paperOnly, "paper-only", false, "run only the paper's own evaluation (Figure 9, Table 1)")
	fs.IntVar(&o.workers, "workers", 4, "parallel workers for the sweeps and extensions")
	fs.StringVar(&o.only, "only", "", "run only suite components whose id contains this (e.g. e12, a1, fig9, table1)")
	fs.StringVar(&o.csvDir, "csv", "", "directory to additionally write CSV files into")
	fs.StringVar(&o.jsonDir, "json", "", "directory to additionally write JSON files into")
	fs.IntVar(&o.fabricLevels, "fabric-levels", 3, "chaos/gray/churn: switch levels l")
	fs.IntVar(&o.fabricChildren, "fabric-children", 8, "chaos/gray/churn: children per switch m")
	fs.IntVar(&o.fabricParents, "fabric-parents", 8, "chaos/gray/churn: parents per switch w")
	fs.IntVar(&o.fabricClients, "fabric-clients", 64, "chaos/gray: concurrent closed-loop clients")
	fs.IntVar(&o.fabricBatch, "fabric-batch", fabric.DefaultBatchSize, "chaos/gray: epoch flush threshold (1 disables batching)")
	fs.IntVar(&o.fabricOpen, "fabric-open", 4, "chaos/gray: circuits each client holds open")
	fs.DurationVar(&o.fabricMaxWait, "fabric-maxwait", 500*time.Microsecond, "chaos/gray: epoch flush timer")
	fs.DurationVar(&o.fabricDuration, "fabric-duration", 2*time.Second, "chaos/gray: run length")
	fs.StringVar(&o.fabricSched, "fabric-scheduler", "", "chaos/gray: admission engine spec (internal/sched registry grammar; \"\" = fabric default)")
	fs.DurationVar(&o.fabricTimeout, "fabric-timeout", 0, "chaos/gray: per-Connect admission timeout, counted in the timeouts column (0 = 100ms)")
	fs.BoolVar(&o.churnMode, "churn", false, "run the arrival/departure churn comparison: batch-replay vs carried (incremental) scheduling on one seeded workload")
	fs.IntVar(&o.churnRate, "churn-rate", 16, "churn: fresh arrivals per epoch")
	fs.Float64Var(&o.churnLife, "churn-life", 8, "churn: mean circuit lifetime in epochs (exponential)")
	fs.IntVar(&o.churnEpochs, "churn-epochs", 200, "churn: epochs to simulate")
	fs.IntVar(&o.churnReuse, "churn-reuse", 4, "churn: reuse-cost cap K for the incremental+reuse discipline (0 skips it)")
	fs.BoolVar(&o.chaosMode, "chaos", false, "run the fault-injection sweep: fabric closed-loop clients plus a seeded mid-run fault/repair schedule")
	fs.StringVar(&o.chaosRates, "chaos-rates", "0,0.01,0.05,0.1", "chaos: comma-separated link failure rates p to sweep")
	fs.DurationVar(&o.chaosCycle, "chaos-cycle", 20*time.Millisecond, "chaos: fault/repair alternation period")
	fs.BoolVar(&o.grayMode, "gray", false, "run the gray-failure sweep: seeded flaky links flapping mid-run, with flap damping, bounded repair retries, and a degraded-plane federation point")
	fs.StringVar(&o.grayRates, "gray-rates", "0,0.02,0.05,0.1", "gray: comma-separated flaky link selection rates p to sweep")
	fs.Float64Var(&o.grayDuty, "gray-duty", 0.5, "gray: per-step down probability of each flaky link")
	fs.DurationVar(&o.grayStep, "gray-step", 2*time.Millisecond, "gray: flaky process clock period")
	fs.IntVar(&o.grayReuse, "gray-reuse", 4, "gray: reuse-cost cap K for the second arm (0 skips it)")
	fs.Float64Var(&o.grayThreshold, "gray-threshold", 3, "gray: flap-damping quarantine threshold")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile (post-GC, at exit) to this file")
	return o
}

// churn is the -churn mode's configuration.
func (o *options) churn() churnBenchConfig {
	return churnBenchConfig{
		Levels: o.fabricLevels, Children: o.fabricChildren, Parents: o.fabricParents,
		Rate: o.churnRate, Life: o.churnLife, Epochs: o.churnEpochs,
		Reuse: o.churnReuse, Seed: o.seed,
	}
}

func main() {
	o := bindFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := startProfiles(o.cpuProfile, o.memProfile)
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
		Levels: o.fabricLevels, Children: o.fabricChildren, Parents: o.fabricParents,
		Clients: o.fabricClients, Batch: o.fabricBatch, Open: o.fabricOpen,
		MaxWait: o.fabricMaxWait, Duration: o.fabricDuration, Seed: o.seed,
		Timeout: o.fabricTimeout, Scheduler: o.fabricSched,
	}
	switch {
	case o.churnMode:
		done(churnBench(os.Stdout, o.churn()))
	case o.grayMode:
		rates, err := parseRates(o.grayRates)
		if err == nil {
			err = grayBench(os.Stdout, grayBenchConfig{
				fabricBenchConfig: loop,
				Rates:             rates, Duty: o.grayDuty, Step: o.grayStep, Reuse: o.grayReuse,
				FlapThreshold: o.grayThreshold,
			})
		}
		done(err)
	case o.chaosMode:
		rates, err := parseRates(o.chaosRates)
		if err == nil {
			err = chaosBench(os.Stdout, chaosBenchConfig{
				fabricBenchConfig: loop, Rates: rates, Cycle: o.chaosCycle,
			})
		}
		done(err)
	}

	if o.csvDir != "" {
		if err := writeFiles(o.csvDir, ".csv", o.perms, o.seed); err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			exit(1)
		}
	}
	if o.jsonDir != "" {
		if err := writeFiles(o.jsonDir, ".json", o.perms, o.seed); err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			exit(1)
		}
	}

	violations, err := experiments.RunSuite(os.Stdout, experiments.SuiteConfig{
		Permutations:   o.perms,
		Seed:           o.seed,
		SkipExtensions: o.paperOnly,
		Workers:        o.workers,
		Only:           o.only,
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
