package main

// The -chaos mode layers a seeded fault/repair schedule on top of the
// closed-loop runner: while clients churn, an injector alternates
// between failing a uniform random fraction p of links and repairing
// everything, and the run reports the schedulability ratio and the
// fabric's own repair-latency histogram as a function of p
// (EXPERIMENTS.md E17). Once the injector stops the run heals and
// settles, and fails unless every revoked connection is accounted for.

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/topology"
)

// chaosBenchConfig parameterizes a failure-rate sweep: each rate runs
// one closed-loop bench of cfg.Duration with a fault/repair cycle of
// period Cycle (fail at p on odd ticks, repair-all on even ticks).
type chaosBenchConfig struct {
	fabricBenchConfig
	Rates []float64     // link failure rates p to sweep
	Cycle time.Duration // fault/repair alternation period
}

// parseRates parses a comma-separated failure-rate list ("0,0.01,0.1").
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		p, err := strconv.ParseFloat(f, 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("chaos: bad failure rate %q (want 0..1)", f)
		}
		rates = append(rates, p)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("chaos: empty failure-rate list")
	}
	return rates, nil
}

// chaosBench sweeps the configured failure rates and prints one summary
// row per rate.
func chaosBench(out io.Writer, cfg chaosBenchConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if len(cfg.Rates) == 0 {
		return fmt.Errorf("chaos: no failure rates to sweep")
	}
	if cfg.Cycle <= 0 {
		return fmt.Errorf("chaos: need positive cycle (%s)", cfg.Cycle)
	}
	if cfg.Timeout <= 0 {
		// Degraded epochs can briefly wedge admission; never let a
		// chaos client block forever.
		cfg.Timeout = 100 * time.Millisecond
	}
	tree, err := topology.New(cfg.Levels, cfg.Children, cfg.Parents)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "chaos %s  clients=%d open=%d duration=%s cycle=%s timeout=%s\n",
		tree, cfg.Clients, cfg.Open, cfg.Duration, cfg.Cycle, cfg.Timeout)
	fmt.Fprintf(out, "  %-6s %-6s %-22s %-7s %-20s %s\n",
		"rate", "sched", "revoked/repaired/fail", "unacct", "repair ms p50/p95", "timeouts")
	for i, p := range cfg.Rates {
		counts, s, err := chaosRun(cfg, p, cfg.Seed+int64(i)*7919)
		if err != nil {
			return fmt.Errorf("chaos rate %g: %w", p, err)
		}
		fmt.Fprintf(out, "  %-6.3f %-6.3f %-22s %-7d %-20s %d\n",
			p, counts.schedulability(),
			fmt.Sprintf("%d/%d/%d", s.Revoked, s.Repaired, s.RepairFailed+s.RepairAborted),
			unaccounted(s),
			fmt.Sprintf("%.2f/%.2f", s.RepairLatencyMS.P50, s.RepairLatencyMS.P95),
			counts.timedOut)
	}
	return nil
}

// chaosRun executes one rate point: closed-loop churn with a seeded
// injector alternating Fail(Uniform(p)) and RepairAll every cfg.Cycle,
// then the heal-and-settle accounting check.
func chaosRun(cfg chaosBenchConfig, p float64, seed int64) (loopCounts, fabric.Stats, error) {
	tree, err := topology.New(cfg.Levels, cfg.Children, cfg.Parents)
	if err != nil {
		return loopCounts{}, fabric.Stats{}, err
	}
	fab, err := fabric.New(fabric.Config{
		Tree: tree, SchedulerSpec: cfg.Scheduler, BatchSize: cfg.Batch, MaxWait: cfg.MaxWait,
		AdmitTimeout: cfg.Timeout,
	})
	if err != nil {
		return loopCounts{}, fabric.Stats{}, err
	}

	stop := make(chan struct{})
	var injWg sync.WaitGroup
	if p > 0 {
		injWg.Add(1)
		go func() {
			defer injWg.Done()
			tick := time.NewTicker(cfg.Cycle)
			defer tick.Stop()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				if n%2 == 0 {
					// Errors here mean the manager is closing; the
					// sweep is ending, so just stop injecting.
					if _, _, err := fab.Fail(faults.Uniform(tree, p, seed+int64(n))); err != nil {
						return
					}
				} else {
					fab.RepairAll()
				}
			}
		}()
	}

	counts, err := closedLoop(fab, tree, cfg.fabricBenchConfig)
	close(stop)
	injWg.Wait()
	var s fabric.Stats
	if err == nil {
		s, err = settle(fab)
	}
	if cerr := fab.Close(context.Background()); err == nil {
		err = cerr
	}
	return counts, s, err
}
