package main

// The -gray mode is the gray-failure resilience sweep (EXPERIMENTS.md
// E21): instead of the -chaos mode's clean fail/repair-all cycles, a
// seeded set of *flaky* links flaps up and down every step while
// closed-loop clients churn, exercising flap damping, the repair retry
// budget, and reuse-cost-aware repair placement together. Each flaky
// rate runs two arms over bit-identical churn (the fault processes are
// counter-mode hashes, so both arms replay the same transitions):
// reuse-cost scoring off, and on. The headline
// numbers per point:
//
//   - unaccounted: revoked − repaired − failed − aborted, which must be
//     0 — no connection may vanish, no matter how the links flap;
//   - repair attempts vs the budget bound revoked + burst + rate·T;
//   - the repaired-on-held-trunk fraction, which the reuse arm must
//     raise (repairs steered toward standing configuration);
//   - quarantine event counts and route churn per epoch.
//
// A final federated point injects a DegradedPlane (slow-but-alive)
// process into a two-plane router and reports the EWMA health score,
// breaker state, and failover accounting under a latency budget.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/topology"
)

// grayBenchConfig parameterizes the gray-failure sweep.
type grayBenchConfig struct {
	fabricBenchConfig
	Rates         []float64     // flaky link selection probabilities to sweep
	Duty          float64       // per-step down probability of a selected link
	Step          time.Duration // flapper clock period
	Reuse         int           // reuse-cost cap K for the reuse arm (0 skips the arm)
	FlapThreshold float64       // damping threshold (0 disables damping)
	Probation     time.Duration // quarantine probation window
	BudgetRate    float64       // repair-retry tokens per second
	BudgetBurst   int           // repair-retry token burst
	LatencyBudget time.Duration // slow-grant threshold for the federated point
}

// grayArm is one (rate, reuse-cost) cell of the sweep.
type grayArm struct {
	Sched    float64
	Revoked  uint64
	Repaired uint64
	// Lost is the terminal repair-failure count — connections the
	// flapping actually cost, as opposed to ones merely re-routed.
	Lost uint64
	// Unaccounted must be zero: every revocation resolves.
	Unaccounted int64
	// Attempts vs the retry-budget bound revoked + burst + rate·T.
	RepairAttempts uint64
	AttemptBound   float64
	QuarantineEvts uint64
	Quarantined    int
	// HeldTrunkFraction is repaired-on-held-trunk / repaired: the
	// reuse-cost placement signal.
	HeldTrunkFraction float64
	ChurnPerEpoch     float64
}

// graySlowPlane is the federated degraded-plane point.
type graySlowPlane struct {
	Offered         uint64
	Granted         uint64
	Failovers       uint64
	BudgetExhausted uint64
	DegradedHealth  float64
	DegradedBreaker string
	HealthyHealth   float64
}

// grayBench sweeps the flaky rates, prints a row per (rate, arm), and
// runs the federated slow-plane point.
func grayBench(out io.Writer, cfg grayBenchConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if len(cfg.Rates) == 0 {
		return fmt.Errorf("gray: no flaky rates to sweep")
	}
	if cfg.Duty <= 0 || cfg.Duty >= 1 {
		return fmt.Errorf("gray: duty cycle %g outside (0, 1)", cfg.Duty)
	}
	if cfg.Step <= 0 {
		return fmt.Errorf("gray: need positive step (%s)", cfg.Step)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 100 * time.Millisecond // flapping epochs must not wedge clients
	}
	tree, err := topology.New(cfg.Levels, cfg.Children, cfg.Parents)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "gray %s  clients=%d open=%d duration=%s step=%s duty=%g threshold=%g budget=%g/%d\n",
		tree, cfg.Clients, cfg.Open, cfg.Duration, cfg.Step, cfg.Duty,
		cfg.Threshold(), cfg.BudgetRate, cfg.BudgetBurst)
	fmt.Fprintf(out, "  %-6s %-6s %-6s %-22s %-7s %-16s %-9s %-10s %s\n",
		"rate", "reuse", "sched", "revoked/repair/lost", "unacct", "attempts/bound", "quar", "heldfrac", "churn/epoch")

	arms := []int{0}
	if cfg.Reuse > 0 {
		arms = append(arms, cfg.Reuse)
	}
	for i, p := range cfg.Rates {
		seed := cfg.Seed + int64(i)*104729
		for _, reuse := range arms {
			arm, err := grayRun(cfg, p, seed, reuse)
			if err != nil {
				return fmt.Errorf("gray rate %g reuse %d: %w", p, reuse, err)
			}
			fmt.Fprintf(out, "  %-6.3f %-6d %-6.3f %-22s %-7d %-16s %-9s %-10.3f %.2f\n",
				p, reuse, arm.Sched,
				fmt.Sprintf("%d/%d/%d", arm.Revoked, arm.Repaired, arm.Lost),
				arm.Unaccounted,
				fmt.Sprintf("%d/%.0f", arm.RepairAttempts, arm.AttemptBound),
				fmt.Sprintf("%d(%d)", arm.QuarantineEvts, arm.Quarantined),
				arm.HeldTrunkFraction, arm.ChurnPerEpoch)
			if float64(arm.RepairAttempts) > arm.AttemptBound {
				return fmt.Errorf("gray rate %g reuse %d: %d repair attempts exceed budget bound %.0f",
					p, reuse, arm.RepairAttempts, arm.AttemptBound)
			}
		}
	}

	slow, err := graySlowPlaneRun(cfg)
	if err != nil {
		return fmt.Errorf("gray slow-plane: %w", err)
	}
	fmt.Fprintf(out, "  slow-plane: granted %d/%d, failovers %d (budget cut %d), degraded health %.3f (%s), healthy %.3f\n",
		slow.Granted, slow.Offered, slow.Failovers, slow.BudgetExhausted,
		slow.DegradedHealth, slow.DegradedBreaker, slow.HealthyHealth)
	return nil
}

// Threshold returns the effective damping threshold (default 3).
func (cfg grayBenchConfig) Threshold() float64 {
	if cfg.FlapThreshold > 0 {
		return cfg.FlapThreshold
	}
	return 3
}

// grayRun executes one (rate, reuse) arm: closed-loop churn while a
// flapper drives the seeded flaky processes, then a full heal + drain
// and the accounting snapshot.
func grayRun(cfg grayBenchConfig, p float64, seed int64, reuse int) (grayArm, error) {
	tree, err := topology.New(cfg.Levels, cfg.Children, cfg.Parents)
	if err != nil {
		return grayArm{}, err
	}
	spec := "level-wise,rollback"
	if reuse > 0 {
		spec += fmt.Sprintf(",reuse-cost=%d", reuse)
	}
	fab, err := fabric.New(fabric.Config{
		Tree: tree, SchedulerSpec: spec, BatchSize: cfg.Batch, MaxWait: cfg.MaxWait,
		AdmitTimeout:        cfg.Timeout,
		FlapThreshold:       cfg.Threshold(),
		QuarantineProbation: cfg.Probation,
		RepairBudget:        fabric.Budget{Rate: cfg.BudgetRate, Burst: cfg.BudgetBurst},
	})
	if err != nil {
		return grayArm{}, err
	}

	start := time.Now()
	fl := faults.NewFlapper(faults.FlakyLinks(tree, p, cfg.Duty, seed))
	stop := make(chan struct{})
	var injWg sync.WaitGroup
	if len(fl.Procs()) > 0 {
		injWg.Add(1)
		go func() {
			defer injWg.Done()
			tick := time.NewTicker(cfg.Step)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				fail, repair := fl.Step()
				if fail != nil {
					if _, _, err := fab.Fail(fail); err != nil {
						return // manager closing; the arm is ending
					}
				}
				if repair != nil {
					if _, err := fab.Repair(repair); err != nil {
						return
					}
				}
			}
		}()
	}

	counts, err := closedLoop(fab, tree, cfg.fabricBenchConfig)
	close(stop)
	injWg.Wait()
	// Heal: repair whatever the processes still hold down, then drain
	// every outstanding repair ticket.
	if ds := fl.DownSet(); err == nil && !ds.Empty() {
		_, err = fab.Repair(ds)
	}
	var s fabric.Stats
	if err == nil {
		s, err = settle(fab)
	}
	total := time.Since(start)
	if cerr := fab.Close(context.Background()); err == nil {
		err = cerr
	}
	if err != nil {
		return grayArm{}, err
	}
	arm := grayArm{
		Sched:          counts.schedulability(),
		Revoked:        s.Revoked,
		Repaired:       s.Repaired,
		Lost:           s.RepairFailed,
		Unaccounted:    unaccounted(s),
		RepairAttempts: s.RepairAttempts,
		AttemptBound:   float64(s.Revoked) + float64(cfg.BudgetBurst) + cfg.BudgetRate*total.Seconds(),
		QuarantineEvts: s.QuarantineEvents,
		Quarantined:    s.Quarantined,
		ChurnPerEpoch:  float64(s.TornRoutes) / float64(max(s.Epochs, 1)),
	}
	if s.Repaired > 0 {
		arm.HeldTrunkFraction = float64(s.RepairedOnHeldTrunk) / float64(s.Repaired)
	}
	return arm, nil
}

// graySlowPlaneRun drives a two-plane federation with one plane running
// an injected DegradedPlane process under a latency budget, and reports
// the health/breaker/failover view.
func graySlowPlaneRun(cfg grayBenchConfig) (graySlowPlane, error) {
	// The latency budget must sit clearly above the fabric's ordinary
	// admit latency (dominated by the epoch flush timer), or every grant
	// on *both* planes counts as slow and the health scores converge.
	latBudget := cfg.LatencyBudget
	if latBudget <= 0 {
		latBudget = 4 * cfg.MaxWait
		if latBudget < 2*time.Millisecond {
			latBudget = 2 * time.Millisecond
		}
	}
	fcfg := federation.Config{
		Policy:        federation.PolicyRoundRobin,
		LatencyBudget: latBudget,
		HealthAlpha:   0.2,
	}
	for i := 0; i < 2; i++ {
		tree, err := topology.New(cfg.Levels, cfg.Children, cfg.Parents)
		if err != nil {
			return graySlowPlane{}, err
		}
		fcfg.Planes = append(fcfg.Planes, federation.PlaneConfig{
			Fabric: fabric.Config{
				Tree: tree, BatchSize: cfg.Batch, MaxWait: cfg.MaxWait,
				AdmitTimeout: cfg.Timeout,
			},
		})
	}
	r, err := federation.New(fcfg)
	if err != nil {
		return graySlowPlane{}, err
	}
	defer r.Close(context.Background())
	if err := r.SetDegraded("plane0", faults.DegradedPlane{
		AdmitLatency: faults.Duration(2 * latBudget),
		DutyCycle:    0.5,
		Seed:         cfg.Seed,
	}); err != nil {
		return graySlowPlane{}, err
	}

	// Keep the offered load well inside both planes' capacity: the point
	// is the latency-budget signal (slow grants on the degraded plane),
	// not saturation denials, which would drag both health scores down
	// together and mask it.
	tree := fcfg.Planes[0].Fabric.Tree
	cap := tree.Nodes() / 4
	if cap < 2 {
		cap = 2
	}
	deadline := time.Now().Add(cfg.Duration / 2)
	var held []*federation.Handle
	n := 0
	for time.Now().Before(deadline) {
		h, err := r.Connect(context.Background(), n%tree.Nodes(), (n*13+5)%tree.Nodes())
		n++
		if err == nil {
			held = append(held, h)
		}
		if len(held) > cap {
			held[0].Release()
			held = held[1:]
		}
	}
	for _, h := range held {
		h.Release()
	}

	s := r.Stats()
	out := graySlowPlane{
		Offered:         s.Offered,
		Granted:         s.Granted,
		Failovers:       s.Failovers,
		BudgetExhausted: s.FailoverBudgetExhausted,
	}
	for _, ps := range s.Planes {
		if ps.Name == "plane0" {
			out.DegradedHealth = ps.Health
			out.DegradedBreaker = ps.Breaker
		} else {
			out.HealthyHealth = ps.Health
		}
	}
	return out, nil
}
