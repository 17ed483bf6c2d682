package fabric

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/topology"
)

// fastRepair is a manager of one-request epochs on a fake clock: the
// repair epoch a Fail queues runs when the test advances the clock, by
// zero for the first attempt, and the last of RepairRetries attempts
// fullBackoff after the first.
func fastRepair(tree *topology.Tree) (Config, *clock.Fake) {
	clk := clock.NewFake()
	return Config{Tree: tree, BatchSize: 1, MaxWait: time.Millisecond, Clock: clk}, clk
}

// fullBackoff is the sum of the backoffs between a repair's first attempt
// and its last: 2 + 4 + … + 128 ms.
const fullBackoff = 254 * time.Millisecond

// TestFailSwitchRevokesAndRoutesAround kills the level-1 switch a route
// climbs through; the repaired route must land on a different parent.
func TestFailSwitchRevokesAndRoutesAround(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	cfg, clk := fastRepair(tree)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	h, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	deadParent := tree.UpParent(0, 0, h.Ports()[0])
	revoked, err := m.FailSwitch(1, deadParent)
	if err != nil {
		t.Fatal(err)
	}
	if revoked != 1 {
		t.Fatalf("FailSwitch revoked %d, want 1", revoked)
	}
	clk.Advance(0) // the repair epoch
	if s := m.Stats(); s.Repaired != 1 {
		t.Fatalf("Repaired = %d after the repair epoch, want 1", s.Repaired)
	}
	if got := tree.UpParent(0, 0, h.Ports()[0]); got == deadParent {
		t.Fatalf("repaired route still climbs through failed switch %d", deadParent)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	// Both channels of each child link are down, so Faults merges them
	// into one Both-direction LinkFault per link.
	fs := m.Faults()
	if len(fs.Links) != tree.Children() {
		t.Fatalf("Faults reports %d links for a failed level-1 switch, want %d", len(fs.Links), tree.Children())
	}
	for _, l := range fs.Links {
		if l.Direction != faults.Both {
			t.Fatalf("merged fault has direction %v, want both: %+v", l.Direction, l)
		}
	}
}

// isolate fails every upward channel out of node 0's level-0 switch, so
// no route from node 0 can leave the switch.
func isolate(t *testing.T, m *Manager) int {
	t.Helper()
	fs := &faults.FaultSet{}
	for p := 0; p < m.cfg.Tree.Parents(); p++ {
		fs.Links = append(fs.Links, faults.LinkFault{Level: 0, Switch: 0, Port: p, Direction: faults.Up})
	}
	_, revoked, err := m.Fail(fs)
	if err != nil {
		t.Fatal(err)
	}
	return revoked
}

// TestConnectDrainingError pins the satellite: a draining manager
// refuses admission with ErrDraining, distinguishable from backpressure
// (ErrAdmitTimeout) while still matching ErrClosed for old callers.
func TestConnectDrainingError(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(Config{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err = m.Connect(context.Background(), 0, 5)
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("connect while draining = %v, want ErrDraining", err)
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("ErrDraining does not match ErrClosed: %v", err)
	}
	if errors.Is(ErrAdmitTimeout, ErrDraining) {
		t.Fatal("backpressure timeout must not match ErrDraining")
	}
}

// TestChaosFailRepairRevoke is the acceptance chaos test (ci runs the
// package under -race): concurrent connect/release churn while faults
// are injected and repaired at random. Afterwards every handle is
// released, nothing is active and CheckInvariants holds — no leaked or
// resurrected channel, ever. Time is a fake clock the test advances: the
// clients' partial batches and the repair loop's backoff run on it.
func TestChaosFailRepairRevoke(t *testing.T) {
	tree := topology.MustNew(3, 4, 2)
	clk := clock.NewFake()
	cfg := Config{
		Tree:         tree,
		BatchSize:    8,
		MaxWait:      500 * time.Microsecond,
		AdmitTimeout: 50 * time.Millisecond,
		Clock:        clk,
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu      sync.Mutex
		held    []*Handle
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		workers = 4
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var local []*Handle
			defer func() {
				mu.Lock()
				held = append(held, local...)
				mu.Unlock()
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if len(local) > 6 || (len(local) > 0 && rng.Intn(3) == 0) {
					i := rng.Intn(len(local))
					h := local[i]
					local = append(local[:i], local[i+1:]...)
					// Any verdict is legal here: nil, or the terminal error of
					// a connection the chaos killed.
					_ = h.Release()
					continue
				}
				h, err := m.Connect(context.Background(), rng.Intn(tree.Nodes()), rng.Intn(tree.Nodes()))
				if err == nil {
					local = append(local, h)
				}
			}
		}(int64(w + 1))
	}

	// Chaos schedule: inject a seeded fault set, let the repair loop
	// work, then heal — sometimes the same set, sometimes everything.
	for i := 0; i < 20; i++ {
		fs := faults.Uniform(tree, 0.04, int64(i))
		if i%5 == 4 {
			fs = faults.CorrelatedSwitches(tree, 0.03, int64(i))
		}
		if _, _, err := m.Fail(fs); err != nil {
			t.Fatal(err)
		}
		advance(clk, 2*time.Millisecond)
		if i%3 == 2 {
			m.RepairAll()
		} else if _, err := m.Repair(fs); err != nil {
			t.Fatal(err)
		}
	}
	// Leave the fabric degraded so the final identity is non-trivial.
	if _, _, err := m.Fail(faults.Uniform(tree, 0.06, 999)); err != nil {
		t.Fatal(err)
	}

	close(stop)
	pumpUntilDone(clk, &wg)
	for _, h := range held {
		_ = h.Release() // dead handles report their terminal error; fine
	}
	clk.Advance(fullBackoff) // every repair still in backoff reaches its verdict
	if s := m.Stats(); s.PendingRepairs != 0 || s.QueueDepth != 0 {
		t.Fatalf("after the last backoff: %d repairs pending, queue depth %d", s.PendingRepairs, s.QueueDepth)
	}

	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Active != 0 {
		t.Fatalf("%d connections still active after releasing every handle", s.Active)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCloseAbortsRepairs shuts the manager down while repairs are
// pending — one queued for its first attempt, one waiting out a backoff
// — and both resolve as aborted, not leaked: the queued one in Close's
// last epoch, the other when its backoff ends.
func TestCloseAbortsRepairs(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	cfg, clk := fastRepair(tree)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	backingOff, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Connect(context.Background(), tree.Children(), tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	isolate(t, m) // repair can never succeed; it cycles through backoff
	clk.Advance(0)
	// Isolate the second circuit's source switch too, and queue its repair.
	fs := &faults.FaultSet{}
	for p := 0; p < tree.Parents(); p++ {
		fs.Links = append(fs.Links, faults.LinkFault{Level: 0, Switch: 1, Port: p, Direction: faults.Up})
	}
	if _, revoked, err := m.Fail(fs); err != nil || revoked != 1 {
		t.Fatalf("isolating the second switch revoked %d (%v), want 1", revoked, err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.PendingRepairs != 1 || s.RepairAborted != 1 || !errors.Is(queued.Err(), ErrClosed) {
		t.Fatalf("after Close: %d repairs pending, %d aborted, queued repair's Err %v; want 1, 1, ErrClosed",
			s.PendingRepairs, s.RepairAborted, queued.Err())
	}
	clk.Advance(2 * time.Millisecond)
	if s := m.Stats(); s.PendingRepairs != 0 || s.RepairAborted != 2 {
		t.Fatalf("after the backoff: %d repairs pending, %d aborted; want 0, 2", s.PendingRepairs, s.RepairAborted)
	}
	if !errors.Is(backingOff.Err(), ErrClosed) {
		t.Fatalf("aborted handle Err = %v, want ErrClosed", backingOff.Err())
	}
}

// TestErrPublishesCauseWithDeath watches handles die on the
// retries-exhausted path through the lock-free Err: a reader that sees
// the dead state must also see the cause — under -race this is what
// proves killRepairLocked writes repairErr before the state store.
func TestErrPublishesCauseWithDeath(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	cfg, clk := fastRepair(tree)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	var hs []*Handle
	for dst := 4; dst < 8; dst++ {
		h, err := m.Connect(context.Background(), dst-4, dst)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	var wg sync.WaitGroup
	for _, h := range hs {
		wg.Add(1)
		go func(h *Handle) {
			defer wg.Done()
			deadline := time.Now().Add(5 * time.Second)
			for h.state.Load() != handleDead {
				if time.Now().After(deadline) {
					t.Errorf("handle %d→%d never died", h.src, h.dst)
					return
				}
				runtime.Gosched()
			}
			if err := h.Err(); !errors.Is(err, ErrUnroutableDegraded) {
				t.Errorf("handle %d→%d dead with Err() = %v, want ErrUnroutableDegraded", h.src, h.dst, err)
			}
		}(h)
	}
	if revoked := isolate(t, m); revoked != len(hs) {
		t.Errorf("isolating revoked %d, want %d", revoked, len(hs))
	}
	clk.Advance(fullBackoff)
	wg.Wait()
}

// advance moves clk forward by d in steps of 100 µs, yielding after each
// so that the goroutines the timers woke get to run before the next.
func advance(clk *clock.Fake, d time.Duration) {
	for step := 100 * time.Microsecond; d > 0; d -= step {
		clk.Advance(min(step, d))
		runtime.Gosched()
	}
}

// pumpUntilDone advances clk until wg's goroutines are done: clients
// blocked on a partial batch or an admission timeout need time to pass.
func pumpUntilDone(clk *clock.Fake, wg *sync.WaitGroup) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			return
		default:
			advance(clk, 100*time.Microsecond)
		}
	}
}
