// Command ftbench regenerates the paper's complete evaluation: Figure
// 9(a)–(d), Table 1, the Section 4 complexity comparison, and (unless
// -paper-only) the ablations and extensions indexed in DESIGN.md.
//
// Usage:
//
//	ftbench [-perms 100] [-seed 1] [-paper-only] [-only id] [-csv dir]
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
// BENCHMARK.json). The serving layer under faults is part of the suite:
// E17 (link failures and repairs) and E21 (flaky links, flap damping,
// repair placement, a slow plane) drive fabric managers on simulated
// time, so `-only e17` and `-only e21` print tables that depend on the
// seed alone, and a cell that loses a connection fails the run.
//
// With -churn, ftbench runs the arrival/departure churn comparison
// (EXPERIMENTS.md E20): one seeded workload of circuit arrivals with
// exponential lifetimes served by batch-replay, incremental, and
// incremental+reuse-cost scheduling, reporting schedulability and route
// churn per epoch — a table that depends on the seed alone. The
// -fabric-levels, -fabric-children and -fabric-parents flags size its
// tree.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
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
	churnMode      bool
	churnRate      int
	churnLife      float64
	churnEpochs    int
	churnReuse     int
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
	fs.IntVar(&o.fabricLevels, "fabric-levels", 3, "churn: switch levels l")
	fs.IntVar(&o.fabricChildren, "fabric-children", 8, "churn: children per switch m")
	fs.IntVar(&o.fabricParents, "fabric-parents", 8, "churn: parents per switch w")
	fs.BoolVar(&o.churnMode, "churn", false, "run the arrival/departure churn comparison: batch-replay vs carried (incremental) scheduling on one seeded workload")
	fs.IntVar(&o.churnRate, "churn-rate", 16, "churn: fresh arrivals per epoch")
	fs.Float64Var(&o.churnLife, "churn-life", 8, "churn: mean circuit lifetime in epochs (exponential)")
	fs.IntVar(&o.churnEpochs, "churn-epochs", 200, "churn: epochs to simulate")
	fs.IntVar(&o.churnReuse, "churn-reuse", 4, "churn: reuse-cost cap K for the incremental+reuse discipline (0 skips it)")
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

	if o.churnMode {
		if err := churnBench(os.Stdout, o.churn()); err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			exit(1)
		}
		exit(0)
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
