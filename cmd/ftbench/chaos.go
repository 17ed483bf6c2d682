package main

// The -chaos mode layers a seeded fault/repair schedule on top of the
// -fabric closed-loop generator: while clients churn, an injector
// alternates between failing a uniform random fraction p of links and
// repairing everything, and the run reports the schedulability ratio
// and repair latency as a function of p (EXPERIMENTS.md E17).

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

// chaosResult is the outcome of one rate point.
type chaosResult struct {
	Rate    float64
	Counts  loopCounts
	Elapsed time.Duration
	Stats   fabric.Stats
	Admit   admitDist // client-observed admission latency percentiles
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
	fmt.Fprintf(out, "  %-6s %-6s %-9s %-22s %-20s %-18s %s\n",
		"rate", "sched", "adm/s", "revoked/repaired/fail", "repair ms p50/p95", "admit us p50/p99", "timeouts")
	for i, p := range cfg.Rates {
		res, err := chaosRun(cfg, p, cfg.Seed+int64(i)*7919)
		if err != nil {
			return fmt.Errorf("chaos rate %g: %w", p, err)
		}
		s := res.Stats
		fmt.Fprintf(out, "  %-6.3f %-6.3f %-9.0f %-22s %-20s %-18s %d\n",
			p, res.Counts.schedulability(),
			float64(res.Counts.offered())/res.Elapsed.Seconds(),
			fmt.Sprintf("%d/%d/%d", s.Revoked, s.Repaired, s.RepairFailed+s.RepairAborted),
			fmt.Sprintf("%.2f/%.2f", s.RepairLatencyMS.P50, s.RepairLatencyMS.P95),
			fmt.Sprintf("%.1f/%.1f", res.Admit.AdmitP50us, res.Admit.AdmitP99us),
			res.Counts.timedOut)
	}
	return nil
}

// chaosRun executes one rate point: closed-loop churn with a seeded
// injector alternating Fail(Uniform(p)) and RepairAll every cfg.Cycle.
func chaosRun(cfg chaosBenchConfig, p float64, seed int64) (chaosResult, error) {
	tree, err := topology.New(cfg.Levels, cfg.Children, cfg.Parents)
	if err != nil {
		return chaosResult{}, err
	}
	fab, err := fabric.New(fabric.Config{
		Tree: tree, SchedulerSpec: cfg.Scheduler, BatchSize: cfg.Batch, MaxWait: cfg.MaxWait,
		AdmitTimeout: cfg.Timeout,
	})
	if err != nil {
		return chaosResult{}, err
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

	rec := newLatRecorder(cfg.Clients)
	counts, elapsed, loopErr := closedLoop(fab, tree, cfg.fabricBenchConfig, true, rec)
	close(stop)
	injWg.Wait()
	s := fab.Stats()
	if err := occupancyConsistent(s, tree); err != nil && loopErr == nil {
		loopErr = err
	}
	if err := fab.Close(context.Background()); err != nil && loopErr == nil {
		loopErr = err
	}
	if loopErr != nil {
		return chaosResult{}, loopErr
	}
	return chaosResult{Rate: p, Counts: counts, Elapsed: elapsed, Stats: s, Admit: rec.dist()}, nil
}
