package fabric

// Manager tests for spec-named incremental engines: the arrivals-only
// equivalence with the default engine, churn accounting under
// reuse-cost, fault revocation and repair, the epoch-histogram exclusion
// of empty flushes, and the release-ring/Close race.

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/topology"
)

// TestIncrementalMatchesBatchArrivalsOnly is the fabric-level half of
// the arrivals-only bit-identity contract: with BatchSize 1 (one epoch
// per request, so epoch composition is deterministic), a manager on the
// incremental engine must grant exactly the routes the default grants.
func TestIncrementalMatchesBatchArrivalsOnly(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	mk := func(spec string) *Manager {
		m, err := New(Config{Tree: tree, BatchSize: 1, SchedulerSpec: spec})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	batch, inc := mk(""), mk("level-wise,rollback,incremental")
	defer batch.Close(context.Background())
	defer inc.Close(context.Background())
	n := tree.Nodes()
	for i := 0; i < 24; i++ {
		src, dst := (i*7)%n, (i*13+5)%n
		hb, errB := batch.Connect(context.Background(), src, dst)
		hi, errI := inc.Connect(context.Background(), src, dst)
		if (errB == nil) != (errI == nil) {
			t.Fatalf("request %d (%d→%d): batch err %v, incremental err %v", i, src, dst, errB, errI)
		}
		if errB != nil {
			continue
		}
		pb, pi := hb.Ports(), hi.Ports()
		if len(pb) != len(pi) {
			t.Fatalf("request %d: route lengths differ: %v vs %v", i, pb, pi)
		}
		for j := range pb {
			if pb[j] != pi[j] {
				t.Fatalf("request %d: routes diverged: %v vs %v", i, pb, pi)
			}
		}
	}
	sb, si := batch.Stats(), inc.Stats()
	if sb.Granted != si.Granted || sb.Rejected != si.Rejected || sb.Occupancy != si.Occupancy {
		t.Fatalf("stats diverged: batch %+v vs incremental %+v", sb, si)
	}
}

// TestIncrementalChurnAccounting drives grant/release cycles and checks
// the route-churn bookkeeping: established and torn routes balance, the
// per-epoch churn distribution is populated, a full drain returns the
// fabric to zero occupancy, and Stats echoes the engine's reuse-cost cap.
func TestIncrementalChurnAccounting(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 1, SchedulerSpec: "level-wise,rollback,incremental,reuse-cost=4"})
	if err != nil {
		t.Fatal(err)
	}
	n := tree.Nodes()
	var handles []*Handle
	for i := 0; i < 16; i++ {
		h, err := m.Connect(context.Background(), (i*11)%n, (i*17+9)%n)
		if err != nil {
			continue
		}
		handles = append(handles, h)
	}
	if len(handles) < 8 {
		t.Fatalf("only %d grants on an idle fabric", len(handles))
	}
	routed := 0
	for _, h := range handles {
		if len(h.Ports()) > 0 {
			routed++
		}
	}
	s := m.Stats()
	if s.ReuseCost != 4 {
		t.Fatalf("spec-named reuse-cost not echoed: %d", s.ReuseCost)
	}
	if s.EstablishedRoutes != uint64(routed) {
		t.Fatalf("EstablishedRoutes = %d, want %d", s.EstablishedRoutes, routed)
	}
	if s.TornRoutes != 0 {
		t.Fatalf("TornRoutes = %d before any release", s.TornRoutes)
	}
	if s.RouteChurn.N == 0 || s.RouteChurn.Max == 0 {
		t.Fatalf("RouteChurn not recorded: %+v", s.RouteChurn)
	}
	for _, h := range handles {
		if err := h.Release(); err != nil {
			t.Fatalf("release: %v", err)
		}
	}
	s = m.Stats() // drains the parked releases
	if s.TornRoutes != uint64(routed) {
		t.Fatalf("TornRoutes = %d after full drain, want %d", s.TornRoutes, routed)
	}
	if s.Occupancy != 0 || s.Active != 0 || s.Utilization != 0 {
		t.Fatalf("fabric not drained: %+v", s)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalRevokeFlowsThroughDeltaPath fails the link under a
// granted route on an incremental-engine manager: the repair must land
// on a fresh route, held grants must carry forward untouched, and the
// final drain must reach zero occupancy with the fault still masked.
func TestIncrementalRevokeFlowsThroughDeltaPath(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	cfg := fastRepair(tree)
	cfg.SchedulerSpec = "level-wise,rollback,incremental"
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	h, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := m.Connect(context.Background(), 1, tree.Nodes()-2)
	if err != nil {
		t.Fatal(err)
	}
	oldPorts := h.Ports()
	revoked, err := m.FailLink(0, 0, oldPorts[0], faults.Up)
	if err != nil {
		t.Fatal(err)
	}
	if revoked != 1 {
		t.Fatalf("FailLink revoked %d, want 1", revoked)
	}
	waitFor(t, func() bool { return m.Stats().Repaired == 1 })
	newPorts := h.Ports()
	if len(newPorts) != 1 || newPorts[0] == oldPorts[0] {
		t.Fatalf("repair kept the dead port: old %v new %v", oldPorts, newPorts)
	}
	// The bystander's route must have survived the whole revoke/repair
	// cycle untouched — held grants carry forward across epochs.
	if len(bystander.Ports()) != 1 {
		t.Fatalf("bystander route disturbed: %v", bystander.Ports())
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	if err := bystander.Release(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Occupancy != 0 || s.FaultyChannels != 1 {
		t.Fatalf("after drain with fault masked: %+v", s)
	}
	if s.TornRoutes < 2 { // revoked route + two releases, minus H==0 routes (none here)
		t.Fatalf("TornRoutes = %d, want >= 2", s.TornRoutes)
	}
}

// TestEpochHistogramExcludesEmptyFlushes: a flush whose tickets were all
// cancelled — including one that only retires parked releases — must
// not move Epochs, EpochSize, or EpochLatencyMS. Only real scheduling
// passes are epochs.
func TestEpochHistogramExcludesEmptyFlushes(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 4, MaxWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	// A pre-cancelled context enqueues the ticket and abandons it before
	// the MaxWait flush fires: the flush sees only a cancelled ticket.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Connect(cancelled, 0, 5); err != context.Canceled {
		t.Fatalf("pre-cancelled Connect: %v", err)
	}
	waitFor(t, func() bool { return m.Stats().QueueDepth == 0 })
	if s := m.Stats(); s.Epochs != 0 || s.EpochSize.N != 0 || s.EpochLatencyMS.N != 0 {
		t.Fatalf("cancelled-only flush recorded as an epoch: %+v", s)
	}

	h, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Epochs != 1 || s.EpochSize.N != 1 {
		t.Fatalf("real epoch not recorded: %+v", s)
	}

	// Release-only flush: the release parks in the ring, and the next
	// flush (driven by another abandoned ticket) retires it without any
	// live request. Histograms must not move.
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	cancelled2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := m.Connect(cancelled2, 1, 6); err != context.Canceled {
		t.Fatalf("pre-cancelled Connect: %v", err)
	}
	waitFor(t, func() bool {
		s := m.Stats()
		return s.QueueDepth == 0 && s.Occupancy == 0
	})
	if s := m.Stats(); s.Epochs != 1 || s.EpochSize.N != 1 || s.EpochLatencyMS.N != 1 {
		t.Fatalf("release-only flush recorded as an epoch: %+v", s)
	}
}

// TestReleaseRingDrainRacesClose races fast-path releases against Close:
// every parked handle must be retired exactly once — no grant may be
// dropped between the ring and the final drain — leaving Released ==
// grants and zero occupancy. The ring is kept tiny (the one caller of
// newManager's ring-size argument) so some releases overflow to the
// synchronous path mid-shutdown.
func TestReleaseRingDrainRacesClose(t *testing.T) {
	for _, mode := range []struct{ name, spec string }{
		{"batch", ""}, {"incremental", "level-wise,rollback,incremental"},
	} {
		t.Run(mode.name, func(t *testing.T) {
			tree := topology.MustNew(3, 4, 4)
			m, err := newManager(Config{Tree: tree, BatchSize: 1, SchedulerSpec: mode.spec}, 8)
			if err != nil {
				t.Fatal(err)
			}
			n := tree.Nodes()
			var handles []*Handle
			for i := 0; i < 48; i++ {
				h, err := m.Connect(context.Background(), (i*5)%n, (i*3+1)%n)
				if err != nil {
					continue
				}
				handles = append(handles, h)
			}
			var wg sync.WaitGroup
			start := make(chan struct{})
			for _, h := range handles {
				wg.Add(1)
				go func(h *Handle) {
					defer wg.Done()
					<-start
					if err := h.Release(); err != nil {
						t.Errorf("release during close: %v", err)
					}
				}(h)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := m.Close(context.Background()); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			close(start)
			wg.Wait()
			// Close returned and every Release returned: all channels must
			// be back, whether the handle drained through the ring, the
			// synchronous path, or Close's final pass.
			s := m.Stats()
			if s.Released != uint64(len(handles)) {
				t.Fatalf("Released = %d, want %d", s.Released, len(handles))
			}
			if s.Active != 0 || s.Occupancy != 0 {
				t.Fatalf("grants dropped in the ring/Close race: %+v", s)
			}
		})
	}
}
