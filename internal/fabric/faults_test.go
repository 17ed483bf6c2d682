package fabric

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// fastRepair keeps repair-loop tests quick: immediate epochs, short
// backoff, a handful of retries.
func fastRepair(tree *topology.Tree) Config {
	return Config{
		Tree:          tree,
		BatchSize:     1,
		MaxWait:       time.Millisecond,
		RepairBackoff: 500 * time.Microsecond,
		RepairRetries: 4,
	}
}

// TestFailLinkRevokesAndRepairs takes down the one link a connection
// climbs through and watches the repair loop move it to a surviving
// port: same endpoints, new route, handle alive throughout.
func TestFailLinkRevokesAndRepairs(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(fastRepair(tree))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	h, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	oldPorts := h.Ports()
	if len(oldPorts) != 1 {
		t.Fatalf("route 0→%d has %d ports, want 1 on a 2-level tree", tree.Nodes()-1, len(oldPorts))
	}

	revoked, err := m.FailLink(0, 0, oldPorts[0], faults.Up)
	if err != nil {
		t.Fatal(err)
	}
	if revoked != 1 {
		t.Fatalf("FailLink revoked %d connections, want 1", revoked)
	}
	waitFor(t, func() bool { return m.Stats().Repaired == 1 })

	if h.Repairing() || h.Err() != nil {
		t.Fatalf("repaired handle not active: repairing=%v err=%v", h.Repairing(), h.Err())
	}
	newPorts := h.Ports()
	if len(newPorts) != 1 || newPorts[0] == oldPorts[0] {
		t.Fatalf("repair kept the dead port: old %v new %v", oldPorts, newPorts)
	}
	s := m.Stats()
	if s.Revoked != 1 || s.PendingRepairs != 0 || s.FaultyChannels != 1 {
		t.Fatalf("stats after repair: %+v", s)
	}
	if s.DegradedCapacity >= 1.0 {
		t.Fatalf("degraded capacity %v not reflecting the fault", s.DegradedCapacity)
	}
	if s.RepairLatencyMS.N != 1 || s.RepairDepth.N != 1 {
		t.Fatalf("repair distributions not recorded: %+v", s)
	}
	if err := h.Release(); err != nil {
		t.Fatalf("release of repaired handle: %v", err)
	}
	if got := m.RepairAll(); got != 1 {
		t.Fatalf("RepairAll returned %d, want 1", got)
	}
	if s := m.Stats(); s.FaultyChannels != 0 || s.DegradedCapacity != 1.0 {
		t.Fatalf("stats after RepairAll: %+v", s)
	}
}

// TestFailSwitchRevokesAndRoutesAround kills the level-1 switch a route
// climbs through; the repaired route must land on a different parent.
func TestFailSwitchRevokesAndRoutesAround(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(fastRepair(tree))
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
	waitFor(t, func() bool { return m.Stats().Repaired == 1 })
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

// TestRepairExhaustionIsTerminal isolates a connection's source switch:
// every repair attempt must fail, the bounded retry gives up, and both
// Handle.Err and Release surface ErrUnroutableDegraded.
func TestRepairExhaustionIsTerminal(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(fastRepair(tree))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	h, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	if revoked := isolate(t, m); revoked != 1 {
		t.Fatalf("isolating revoked %d, want 1", revoked)
	}
	waitFor(t, func() bool { return m.Stats().RepairFailed == 1 })

	if !errors.Is(h.Err(), ErrUnroutableDegraded) {
		t.Fatalf("dead handle Err = %v, want ErrUnroutableDegraded", h.Err())
	}
	if err := h.Release(); !errors.Is(err, ErrUnroutableDegraded) {
		t.Fatalf("release of dead handle = %v, want ErrUnroutableDegraded", err)
	}
	s := m.Stats()
	if s.PendingRepairs != 0 || s.Active != 0 {
		t.Fatalf("dead repair left pending=%d active=%d", s.PendingRepairs, s.Active)
	}
	if s.RepairDepth.N != 0 {
		t.Fatalf("failed repair recorded a depth sample: %+v", s.RepairDepth)
	}
	// New admissions from the isolated switch are ordinary rejections.
	if _, err := m.Connect(context.Background(), 0, tree.Nodes()-1); !errors.Is(err, ErrUnroutable) {
		t.Fatalf("connect from isolated switch = %v, want ErrUnroutable", err)
	}
}

// TestReleaseCancelsRepair releases a handle while it sits in the
// repair loop; the repair is aborted, nothing leaks.
func TestReleaseCancelsRepair(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	cfg := fastRepair(tree)
	cfg.RepairBackoff = time.Hour // park the repair in backoff forever
	cfg.RepairRetries = 100
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	h, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	isolate(t, m)
	if !h.Repairing() {
		t.Fatal("revoked handle not repairing")
	}
	if err := h.Release(); err != nil {
		t.Fatalf("release of repairing handle: %v", err)
	}
	waitFor(t, func() bool {
		s := m.Stats()
		return s.RepairAborted == 1 && s.PendingRepairs == 0
	})
	if err := h.Release(); !errors.Is(err, ErrReleased) {
		t.Fatalf("second release = %v, want ErrReleased", err)
	}
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
// released and the link state must equal exactly (all-free minus the
// remaining failed channels) — no leaked or resurrected channel, ever.
func TestChaosFailRepairRevoke(t *testing.T) {
	tree := topology.MustNew(3, 4, 2)
	cfg := Config{
		Tree:          tree,
		BatchSize:     8,
		MaxWait:       500 * time.Microsecond,
		AdmitTimeout:  50 * time.Millisecond,
		RepairBackoff: 500 * time.Microsecond,
		RepairRetries: 3,
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
		time.Sleep(2 * time.Millisecond)
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
	wg.Wait()
	for _, h := range held {
		_ = h.Release() // dead handles report their terminal error; fine
	}
	waitFor(t, func() bool {
		s := m.Stats()
		return s.PendingRepairs == 0 && s.QueueDepth == 0
	})

	s := m.Stats()
	if s.Revoked != s.Repaired+s.RepairFailed+s.RepairAborted {
		t.Fatalf("repair accounting leak: revoked %d != repaired %d + failed %d + aborted %d",
			s.Revoked, s.Repaired, s.RepairFailed, s.RepairAborted)
	}
	if s.Active != 0 {
		t.Fatalf("%d connections still active after releasing every handle", s.Active)
	}

	// The acceptance identity: after arbitrary fail/repair/revoke
	// sequences and a full drain, the state is exactly all-free minus
	// the currently failed channels.
	want := linkstate.New(tree)
	remaining := m.Faults()
	remaining.Apply(want)
	m.mu.Lock()
	equal := m.st.Equal(want)
	occupied := m.st.OccupiedCount()
	m.mu.Unlock()
	if occupied != 0 {
		t.Fatalf("%d channels still occupied after drain", occupied)
	}
	if !equal {
		t.Fatal("drained degraded state differs from fresh-plus-faults")
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCloseAbortsRepairs shuts the manager down while repairs are
// pending; they resolve as aborted, not leaked.
func TestCloseAbortsRepairs(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	cfg := fastRepair(tree)
	cfg.RepairRetries = 1000
	cfg.RepairBackoff = time.Millisecond
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	isolate(t, m) // repair can never succeed; it cycles through backoff
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		s := m.Stats()
		return s.PendingRepairs == 0 && s.RepairAborted == 1
	})
	if !errors.Is(h.Err(), ErrClosed) {
		t.Fatalf("aborted handle Err = %v, want ErrClosed", h.Err())
	}
}

// TestFailRevokesExactlyTheCrossingSet pins the revoke walk over the
// slice registry against a map kept by the test: after a churn of grants
// and out-of-order releases (every release a swap-remove), Fail must
// revoke exactly the live handles whose routes cross the fault — none
// skipped because a swap moved it, none visited twice — every slot must
// still point back at its handle, and the revocations must resolve into
// the accounting identity. The deep tree's routes outgrow the handle's
// inline array, so both port storages are walked.
func TestFailRevokesExactlyTheCrossingSet(t *testing.T) {
	for _, tree := range []*topology.Tree{topology.MustNew(3, 4, 4), topology.MustNew(6, 2, 2)} {
		t.Run(fmt.Sprintf("levels=%d", tree.Levels()), func(t *testing.T) {
			type pair struct{ src, dst int }
			var (
				tmu     sync.Mutex
				revoked = make(map[pair]int)
			)
			cfg := fastRepair(tree)
			cfg.Trace = func(e Event) {
				if e.Kind == EventRevoke {
					tmu.Lock()
					revoked[pair{e.Src, e.Dst}]++
					tmu.Unlock()
				}
			}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close(context.Background())

			rng := rand.New(rand.NewSource(1))
			live := make(map[*Handle]struct{})
			taken := make(map[pair]bool)
			for i := 0; i < 400; i++ {
				if len(live) > 0 && rng.Intn(3) == 0 {
					for h := range live { // map order: an arbitrary slot
						delete(live, h)
						taken[pair{h.src, h.dst}] = false
						if err := h.Release(); err != nil {
							t.Fatal(err)
						}
						break
					}
					continue
				}
				p := pair{rng.Intn(tree.Nodes()), rng.Intn(tree.Nodes())}
				if taken[p] {
					continue // one live circuit per pair, so a pair names a handle
				}
				h, err := m.Connect(context.Background(), p.src, p.dst)
				if err != nil {
					continue
				}
				live[h] = struct{}{}
				taken[p] = true
			}

			fs := faults.Uniform(tree, 0.15, 7)
			bad := make(map[faults.Channel]struct{})
			for _, c := range fs.Channels(tree) {
				bad[c] = struct{}{}
			}
			m.mu.Lock()
			m.drainReleasesLocked()
			want := make(map[pair]int)
			for h := range live {
				if m.routeCrossesLocked(h, bad) {
					want[pair{h.src, h.dst}] = 1
				}
			}
			if len(m.conns) != len(live) {
				t.Errorf("registry holds %d handles, %d are live", len(m.conns), len(live))
			}
			for i, h := range m.conns {
				if _, ok := live[h]; !ok || h.idx != i {
					t.Errorf("registry slot %d: handle %d→%d idx %d, live %v", i, h.src, h.dst, h.idx, ok)
				}
			}
			m.mu.Unlock()
			if len(want) == 0 {
				t.Fatal("fault set crosses no held route; the test exercises nothing")
			}

			_, n, err := m.Fail(fs)
			if err != nil {
				t.Fatal(err)
			}
			tmu.Lock()
			got := make(map[pair]int, len(revoked))
			for p, c := range revoked {
				got[p] = c
			}
			tmu.Unlock()
			if n != len(want) || len(got) != len(want) {
				t.Fatalf("Fail revoked %d (traced %d), want %d", n, len(got), len(want))
			}
			for p := range want {
				if got[p] != 1 {
					t.Errorf("circuit %d→%d crosses the fault and was revoked %d times, want once", p.src, p.dst, got[p])
				}
			}

			for h := range live {
				_ = h.Release() // dead handles report their terminal error; fine
			}
			waitFor(t, func() bool {
				s := m.Stats()
				return s.PendingRepairs == 0 && s.QueueDepth == 0
			})
			s := m.Stats()
			if s.Revoked != uint64(n) || s.Revoked != s.Repaired+s.RepairFailed+s.RepairAborted {
				t.Errorf("repair accounting: revoked %d (Fail said %d) != repaired %d + failed %d + aborted %d",
					s.Revoked, n, s.Repaired, s.RepairFailed, s.RepairAborted)
			}
			m.mu.Lock()
			left := len(m.conns)
			m.mu.Unlock()
			if left != 0 || s.Active != 0 {
				t.Errorf("after the drain the registry holds %d handles, active %d", left, s.Active)
			}
		})
	}
}

// TestErrPublishesCauseWithDeath watches handles die on the
// retries-exhausted path through the lock-free Err: a reader that sees
// the dead state must also see the cause — under -race this is what
// proves killRepairLocked writes repairErr before the state store.
func TestErrPublishesCauseWithDeath(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	cfg := fastRepair(tree)
	cfg.RepairRetries = 1
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
	wg.Wait()
}

// TestRepairRetiresParkedReleasesFirst replays, step by step, a Release
// that lands while Fail holds the lock: the owner's CAS has happened, the
// handle reaches the ring only after the fault is healed again. The revoke
// walk must not trust the released flag — it tears the route down then and
// there, once — or the parked route names a channel that is free again and
// its teardown releases a channel it no longer holds. Whether the drain
// then finds the handle repairing (and aborts the repair) or already
// re-admitted by the deadline's epoch (and releases the new route), every
// channel is back and the revocation is accounted for.
func TestRepairRetiresParkedReleasesFirst(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	h.released.Store(true) // the owner's Release won its CAS …
	if revoked, err := m.FailLink(0, 0, h.Ports()[0], faults.Up); err != nil || revoked != 1 {
		t.Errorf("FailLink = %d, %v; a crossing active handle is revoked, released or not", revoked, err)
	}
	m.RepairAll()
	if !m.relRing.push(h) { // … and parks only now
		t.Fatal("ring refused the handle")
	}
	s := m.Stats()
	if s.Occupancy != 0 || s.FaultyChannels != 0 || s.Active != 0 || s.PendingRepairs != 0 {
		t.Errorf("after heal and drain: %+v", s)
	}
	aborted := s.Revoked == 1 && s.RepairAborted == 1 && s.Repaired == 0 && s.Released == 0
	readmitted := s.Revoked == 1 && s.RepairAborted == 0 && s.Repaired == 1 && s.Released == 1
	if !aborted && !readmitted || s.RepairFailed != 0 {
		t.Errorf("revoked %d = repaired %d + failed %d + aborted %d, released %d: neither an aborted repair nor a re-admission released",
			s.Revoked, s.Repaired, s.RepairFailed, s.RepairAborted, s.Released)
	}
	m.Close(context.Background()) // not deferred: a teardown panic holds m.mu
}
