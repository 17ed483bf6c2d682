package main

// The closed-loop runner behind -chaos and -gray: N concurrent clients
// drive Connect/Release against an in-process fabric manager while the
// mode's injector breaks links: extension E4's churn (random endpoints,
// connections held across subsequent operations), which E4 itself drives
// through one fabric manager single-threaded on simulated time, here from
// concurrent clients on the wall clock. It counts outcomes and times
// nothing: rates and latencies are bench/'s job
// (`bash bench/run.sh --workload fabric_churn`).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/topology"
)

// fabricBenchConfig parameterizes one closed-loop run; the -fabric-*
// flags fill it.
type fabricBenchConfig struct {
	Levels, Children, Parents int
	Clients                   int           // concurrent closed-loop clients
	Batch                     int           // epoch flush threshold
	MaxWait                   time.Duration // epoch flush timer
	Open                      int           // circuits each client holds (FIFO churn)
	Duration                  time.Duration
	Timeout                   time.Duration // per-Connect admission timeout (0 = wait forever)
	Seed                      int64
	Scheduler                 string // admission engine spec ("" = fabric default)
}

func (cfg fabricBenchConfig) validate() error {
	if cfg.Clients <= 0 || cfg.Open <= 0 || cfg.Duration <= 0 {
		return fmt.Errorf("fabric bench: need positive clients (%d), open (%d), duration (%s)",
			cfg.Clients, cfg.Open, cfg.Duration)
	}
	return nil
}

// loopCounts aggregates the client-side view of one closed-loop run.
type loopCounts struct {
	admitted, denied, timedOut uint64
}

// offered is the total admission attempts the clients made.
func (c loopCounts) offered() uint64 { return c.admitted + c.denied + c.timedOut }

// schedulability is the fraction of attempts that were granted — the
// paper's schedulability ratio, measured at the client.
func (c loopCounts) schedulability() float64 {
	if c.offered() == 0 {
		return 0
	}
	return float64(c.admitted) / float64(c.offered())
}

// occupancyConsistent is the accounting check every harness snapshot
// passes: the occupancy gauge and the utilization of one Stats snapshot are
// read under one lock, so the gauge is exactly the occupied-channel count
// the utilization was computed from — whatever the injector is doing.
func occupancyConsistent(s fabric.Stats, tree *topology.Tree) error {
	channels := 2 * tree.TotalLinks()
	if want := int64(math.Round(s.Utilization * float64(channels))); s.Occupancy != want {
		return fmt.Errorf("occupancy gauge reads %d, utilization %.6f of %d channels is %d", s.Occupancy, s.Utilization, channels, want)
	}
	return nil
}

// closedLoop drives cfg.Clients concurrent FIFO-churn clients against
// fab until cfg.Duration elapses. Faults are being injected mid-run, so
// admission timeouts are counted and release errors (a revoked circuit)
// are tolerated, both being expected degraded-mode outcomes; any other
// client error aborts the run and is returned.
func closedLoop(fab *fabric.Manager, tree *topology.Tree, cfg fabricBenchConfig) (loopCounts, error) {
	var admitted, denied, timedOut atomic.Uint64
	deadline := time.Now().Add(cfg.Duration)
	errs := make([]error, cfg.Clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
			var held []*fabric.Handle
			defer func() {
				for _, h := range held {
					h.Release()
				}
			}()
			for time.Now().Before(deadline) {
				// Churn: keep Open long-lived circuits, retiring the
				// oldest before each new admission.
				for len(held) >= cfg.Open {
					held[0].Release()
					held = held[1:]
				}
				src, dst := rng.Intn(tree.Nodes()), rng.Intn(tree.Nodes())
				h, err := fab.Connect(context.Background(), src, dst)
				switch {
				case err == nil:
					admitted.Add(1)
					held = append(held, h)
				case errors.Is(err, fabric.ErrUnroutable) || errors.Is(err, fabric.ErrUnroutableDegraded):
					denied.Add(1)
				case errors.Is(err, fabric.ErrAdmitTimeout):
					timedOut.Add(1)
				default:
					errs[id] = fmt.Errorf("client %d: %w", id, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return loopCounts{}, err
		}
	}
	return loopCounts{admitted.Load(), denied.Load(), timedOut.Load()}, nil
}

// healer is what settle needs of a *fabric.Manager; a test substitutes a
// fake whose Stats break the repair identity.
type healer interface {
	RepairAll() int
	Stats() fabric.Stats
}

// settle ends a fault run once its injector has stopped: repair every
// link still down, wait until no repair ticket is pending and the epoch
// queue is empty (budget deferrals included; 15 s at most), and return
// the settled Stats. Every poll must pass occupancyConsistent, and the settled
// snapshot must satisfy revoked = repaired + repair_failed +
// repair_aborted — no connection may vanish, however the links failed.
func settle(fab healer, tree *topology.Tree) (fabric.Stats, error) {
	fab.RepairAll()
	deadline := time.Now().Add(15 * time.Second)
	for {
		s := fab.Stats()
		if err := occupancyConsistent(s, tree); err != nil {
			return s, err
		}
		if s.PendingRepairs == 0 && s.QueueDepth == 0 {
			if n := unaccounted(s); n != 0 {
				return s, fmt.Errorf("%d unaccounted connections (revoked %d, repaired %d, failed %d, aborted %d)",
					n, s.Revoked, s.Repaired, s.RepairFailed, s.RepairAborted)
			}
			return s, nil
		}
		if time.Now().After(deadline) {
			return s, fmt.Errorf("repairs failed to settle: %d pending", s.PendingRepairs)
		}
		time.Sleep(time.Millisecond)
	}
}

// unaccounted is revoked − repaired − failed − aborted, which must be 0:
// every revocation resolves.
func unaccounted(s fabric.Stats) int64 {
	return int64(s.Revoked) - int64(s.Repaired) - int64(s.RepairFailed) - int64(s.RepairAborted)
}
