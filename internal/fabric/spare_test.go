package fabric

// Tests of who allocates what: a grant's Handle is made by the Connect
// that armed the ticket, and the epoch — the one pass every queued client
// waits behind — allocates nothing for it.

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/topology"
)

// manualManager is a Manager no Connect will ever close a batch on and no
// deadline will fire for: the test runs every epoch by hand.
func manualManager(t *testing.T, tree *topology.Tree) *Manager {
	t.Helper()
	m, err := New(Config{Tree: tree, BatchSize: 1 << 20, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close(context.Background()) })
	return m
}

// runEpoch queues the (armed) tickets as Connect would and runs one epoch
// over them on this goroutine, delivery included.
func runEpoch(t *testing.T, m *Manager, tickets ...*ticket) {
	t.Helper()
	for _, tk := range tickets {
		if _, err := m.enqueue(context.Background(), nil, tk); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	verdicts := m.flushLocked()
	m.mu.Unlock()
	deliver(verdicts)
}

// TestEpochAllocatesNothingUnderLock: with each ticket's spare Handle in
// place, a full all-grant epoch — draining the previous round's releases
// from the ring, scheduling, registering the grants, staging and
// delivering the verdicts — performs no allocation at all. The Handles are
// made up front here, as armTicket makes them on the client's goroutine.
func TestEpochAllocatesNothingUnderLock(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const batch, runs = 16, 200
	tree := topology.MustNew(3, 8, 8)
	m := manualManager(t, tree)
	tickets := make([]*ticket, batch)
	for i := range tickets {
		tickets[i] = &ticket{resp: make(chan result, 1)}
	}
	spares := make([]*Handle, (runs+2)*batch) // AllocsPerRun adds a warm-up run
	for i := range spares {
		spares[i] = &Handle{m: m}
	}
	half := tree.Nodes() / 2
	allocs := testing.AllocsPerRun(runs, func() {
		for i, tk := range tickets {
			tk.spare, spares = spares[0], spares[1:]
			m.armTicket(tk, 8*i, half+8*i) // sixteen routes through the top, no two sharing a switch
		}
		runEpoch(t, m, tickets...)
		for _, tk := range tickets {
			r := <-tk.resp
			if r.err != nil {
				t.Fatalf("%d→%d denied on an idle fabric: %v", tk.req.Src, tk.req.Dst, r.err)
			}
			if err := r.h.Release(); err != nil { // parks; the next run's epoch retires it
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("an all-grant epoch of %d allocates %.1f objects, want 0", batch, allocs)
	}
	if s := m.Stats(); s.Granted != (runs+1)*batch || s.Active != 0 || s.Occupancy != 0 {
		t.Errorf("granted %d, active %d, occupancy %d after %d epochs of %d, all released", s.Granted, s.Active, s.Occupancy, runs+1, batch)
	}
}

// TestSpareSurvivesDenial: a ticket keeps its spare Handle through a
// denial, so a denied-then-granted request allocates one Handle in all;
// the grant consumes it and the next arming makes another. A cancelled
// ticket never returns to the pool, so neither does its spare.
func TestSpareSurvivesDenial(t *testing.T) {
	// One upward port per switch: 0→2 and 1→3 want the same two channels.
	m := manualManager(t, topology.MustNew(2, 2, 1))
	blocker, tk := m.getTicket(0, 2), m.getTicket(1, 3)
	runEpoch(t, m, blocker)
	held := <-blocker.resp
	if held.err != nil {
		t.Fatal(held.err)
	}

	spare := tk.spare
	if spare == nil {
		t.Fatal("an armed ticket has no spare Handle")
	}
	runEpoch(t, m, tk)
	if r := <-tk.resp; !errors.Is(r.err, ErrUnroutable) || r.h != nil {
		t.Fatalf("1→3 behind 0→2 = (%v, %v), want a denial", r.h, r.err)
	}
	if tk.spare != spare {
		t.Fatal("a denial took the ticket's spare Handle")
	}
	m.armTicket(tk, 1, 3)
	if tk.spare != spare {
		t.Fatal("re-arming a denied ticket allocated a second Handle")
	}
	if err := held.h.Release(); err != nil {
		t.Fatal(err)
	}
	runEpoch(t, m, tk)
	r := <-tk.resp
	if r.err != nil {
		t.Fatalf("1→3 after the release: %v", r.err)
	}
	if r.h != spare {
		t.Fatal("the grant is not the Handle its Connect allocated")
	}
	if r.h.Src() != 1 || r.h.Dst() != 3 || len(r.h.Ports()) != 1 {
		t.Fatalf("granted handle %d→%d ports %v, want 1→3 over one port", r.h.Src(), r.h.Dst(), r.h.Ports())
	}
	if tk.spare != nil {
		t.Fatal("a grant left its Handle on the ticket as well")
	}
	m.armTicket(tk, 1, 3)
	if tk.spare == nil || tk.spare == spare {
		t.Fatal("arming after a grant did not allocate a fresh spare")
	}
	if err := r.h.Release(); err != nil {
		t.Fatal(err)
	}

	// A Connect cancelled while queued: its ticket, spare and all, is
	// dropped by the epoch untouched and never pooled.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := m.Connect(ctx, 0, 2)
		errc <- err
	}()
	waitFor(t, func() bool { return queueDepth(m) == 1 })
	m.qmu.Lock()
	dead := m.pending[0]
	m.qmu.Unlock()
	deadSpare := dead.spare
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Connect = %v", err)
	}
	runEpoch(t, m)
	if dead.spare != deadSpare || deadSpare.idx != 0 || deadSpare.src != 0 || deadSpare.dst != 0 {
		t.Fatal("the epoch touched a cancelled ticket's spare Handle")
	}
	for i := 0; i < 8; i++ {
		next := m.getTicket(0, 2)
		if next == dead || next.spare == deadSpare {
			t.Fatal("a cancelled ticket (or its spare) came back from the pool")
		}
		runEpoch(t, m, next)
		got := <-next.resp
		if got.err != nil || got.h == deadSpare {
			t.Fatalf("grant after the cancellation = (%p, %v)", got.h, got.err)
		}
		if err := got.h.Release(); err != nil {
			t.Fatal(err)
		}
		m.putTicket(next)
	}
}

// TestStatsOccupancyMatchesUtilization: Stats reads the occupancy gauge in
// the same locked section as Utilization, so every snapshot — taken here
// while epochs and releases run — has Occupancy == Utilization × channels
// exactly, ChannelAllocs never runs backwards, and the epoch distributions
// (recorded with plain stores under that lock) count the same epochs.
func TestStatsOccupancyMatchesUtilization(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 4, MaxWait: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	channels := float64(2 * tree.TotalLinks())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h, err := m.Connect(context.Background(), (c*8+i)%tree.Nodes(), (c*8+i*7+32)%tree.Nodes())
				if err == nil {
					err = h.Release()
				}
				if err != nil && !errors.Is(err, ErrUnroutable) {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	var lastAllocs uint64
	deadline := time.Now().Add(10 * time.Second)
	for i, granted := 0, uint64(0); granted < 2000; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("%d grants in 10 s", granted)
		}
		s := m.Stats()
		granted = s.Granted
		if want := int64(math.Round(s.Utilization * channels)); s.Occupancy != want {
			t.Fatalf("snapshot %d: occupancy %d, utilization %.6f × %v channels = %d", i, s.Occupancy, s.Utilization, channels, want)
		}
		if s.ChannelAllocs < lastAllocs {
			t.Fatalf("snapshot %d: channel_allocs fell from %d to %d", i, lastAllocs, s.ChannelAllocs)
		}
		lastAllocs = s.ChannelAllocs
		// The histograms are copied in the same locked section: an epoch
		// is in all three of its distributions or in none.
		if n := s.EpochSize.N; n != s.EpochLatencyMS.N || n != s.RouteChurn.N || uint64(n) > s.Epochs {
			t.Fatalf("snapshot %d: %d sizes, %d latencies, %d churns of %d epochs", i, n, s.EpochLatencyMS.N, s.RouteChurn.N, s.Epochs)
		}
	}
	close(stop)
	wg.Wait()
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Occupancy != 0 || s.Utilization != 0 || s.ChannelAllocs == 0 {
		t.Errorf("after every release: occupancy %d, utilization %v, channel_allocs %d", s.Occupancy, s.Utilization, s.ChannelAllocs)
	}
}
