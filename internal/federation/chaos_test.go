package federation

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/topology"
)

// TestChaosPlaneKillAccounting is the plane-failure acceptance test:
// concurrent closed-loop churn across 3 planes, one plane killed
// mid-run, and a full accounting at the end proving zero lost
// (unaccounted) connections — every granted circuit was either released
// cleanly or terminated with a documented terminal error that the
// router's loss counter agrees with, and every plane drains to zero
// active circuits and zero occupied channels. Run under -race in CI.
//
// The schedule is driven by events, not by the clock: the victim plane
// dies once chaosKillAt circuits are held on it, the run stops once
// chaosStopAt of them reached a migration verdict, and no worker tears a
// circuit down while its verdict is still pending — so the migration
// path is exercised on every run, however the goroutines interleave.
func TestChaosPlaneKillAccounting(t *testing.T) {
	const (
		victim      = "plane1"
		chaosKillAt = 16 // circuits held on the victim when it is killed
		chaosStopAt = 8  // migration verdicts (readmitted + lost) that end the run
		workers     = 8
	)
	var (
		r        *Router
		killOnce sync.Once
		stopOnce sync.Once
		killNow  = make(chan struct{})
		stopNow  = make(chan struct{})
	)
	cfg := Config{Policy: PolicyRoundRobin}
	for i := 0; i < 3; i++ {
		cfg.Planes = append(cfg.Planes, PlaneConfig{
			Fabric: fabric.Config{
				Tree:          topology.MustNew(3, 4, 4),
				BatchSize:     8,
				MaxWait:       100 * time.Microsecond,
				RepairRetries: 2,
				RepairBackoff: time.Millisecond,
				// Chained after the router's own hook, so the migration of
				// this connection has already reached its verdict.
				OnConnTerminal: func(fabric.Conn, error) {
					if r.readmitted.Load()+r.lost.Load() >= chaosStopAt {
						stopOnce.Do(func() { close(stopNow) })
					}
				},
			},
		})
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var (
		stop             atomic.Bool
		heldOnVictim     atomic.Int64
		grantTotal       atomic.Uint64
		releasedOK       atomic.Uint64
		releasedLost     atomic.Uint64
		releasedDegraded atomic.Uint64
		releasedOther    atomic.Uint64
		errMu            sync.Mutex
		otherErr         error // first unexpected release error
		wg               sync.WaitGroup
		nodes            = r.Nodes()
	)
	account := func(err error) {
		switch {
		case err == nil:
			releasedOK.Add(1)
		case errors.Is(err, ErrConnLost):
			releasedLost.Add(1)
		case errors.Is(err, fabric.ErrUnroutableDegraded):
			// The owner's Release raced the terminal verdict ahead of
			// the router's migration hook: the plane's documented
			// repair-exhaustion error, already fully torn down.
			releasedDegraded.Add(1)
		default:
			releasedOther.Add(1)
			errMu.Lock()
			if otherErr == nil {
				otherErr = err
			}
			errMu.Unlock()
		}
	}
	// release tears one circuit down, but not while its fate is open: a
	// revoked circuit is left alone until the plane's repair loop and the
	// router's migration have settled it (alive again, or ErrConnLost).
	// Releasing earlier is legal — the drains above account for it — but
	// would leave it to luck whether any circuit lives long enough to
	// migrate. The wait is bounded; past the bound the release goes ahead
	// and is accounted like any other.
	release := func(h *Handle) {
		for bound := time.Now().Add(5 * time.Second); time.Now().Before(bound); runtime.Gosched() {
			if err := h.Err(); !h.Repairing() && (err == nil || errors.Is(err, ErrConnLost)) {
				break
			}
		}
		account(h.Release())
	}
	type held struct {
		h        *Handle
		onVictim bool // counted in heldOnVictim at grant time
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			g := lcg(seed)
			var hold []held
			drop := func(c held) {
				if c.onVictim {
					heldOnVictim.Add(-1)
				}
				release(c.h)
			}
			for !stop.Load() {
				if len(hold) >= 12 || (len(hold) > 0 && g.next(4) == 0) {
					c := hold[0]
					hold = hold[1:]
					drop(c)
					continue
				}
				src, dst := g.next(nodes), g.next(nodes)
				h, err := r.Connect(context.Background(), src, dst)
				if err != nil {
					continue // denial; nothing held
				}
				grantTotal.Add(1)
				c := held{h: h, onVictim: h.Plane() == victim}
				if c.onVictim && heldOnVictim.Add(1) >= chaosKillAt {
					killOnce.Do(func() { close(killNow) })
				}
				hold = append(hold, c)
			}
			for _, c := range hold {
				drop(c)
			}
		}(uint64(w)*2654435761 + 1)
	}

	timeout := time.After(30 * time.Second)
	select {
	case <-killNow:
	case <-timeout:
		t.Fatalf("never held %d circuits on %s (held %d)", chaosKillAt, victim, heldOnVictim.Load())
	}
	if err := r.KillPlane(victim); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stopNow:
	case <-timeout:
		t.Errorf("only %d of %d migration verdicts after the kill",
			r.readmitted.Load()+r.lost.Load(), chaosStopAt)
	}
	stop.Store(true)
	wg.Wait()

	// Let in-flight migrations and the killed plane's repair loop settle.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := r.Stats()
		settled := s.PendingReadmits == 0
		for _, ps := range s.Planes {
			if ps.Fabric.PendingRepairs != 0 {
				settled = false
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("migrations never settled: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	// A migration that completed after its owner's Release hands the
	// fresh circuit straight back asynchronously; one more poll round
	// covers that final release.
	var s Stats
	for {
		s = r.Stats()
		clean := true
		for _, ps := range s.Planes {
			if ps.Fabric.Active != 0 || ps.Occupancy != 0 {
				clean = false
			}
		}
		if clean {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("planes never drained: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}

	if n := releasedOther.Load(); n != 0 {
		t.Errorf("%d releases returned undocumented errors, first: %v", n, otherErr)
	}
	got := releasedOK.Load() + releasedLost.Load() + releasedDegraded.Load() + releasedOther.Load()
	if got != grantTotal.Load() {
		t.Errorf("accounting leak: %d grants, %d accounted releases", grantTotal.Load(), got)
	}
	if releasedLost.Load() != s.Lost {
		t.Errorf("ErrConnLost releases %d != router Lost %d", releasedLost.Load(), s.Lost)
	}
	if s.PendingReadmits != 0 {
		t.Errorf("PendingReadmits = %d after settle", s.PendingReadmits)
	}
	if grantTotal.Load() == 0 || s.Readmitted == 0 {
		t.Errorf("chaos run exercised nothing: grants %d, readmitted %d", grantTotal.Load(), s.Readmitted)
	}
	t.Logf("grants=%d failovers=%d readmitted=%d lost=%d degraded-drains=%d",
		grantTotal.Load(), s.Failovers, s.Readmitted, s.Lost, releasedDegraded.Load())

	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := fmt.Errorf("wrapped: %w", ErrConnLost); !errors.Is(err, ErrConnLost) {
		t.Error("ErrConnLost does not survive wrapping")
	}
}
