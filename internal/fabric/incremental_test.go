package fabric

// Manager tests for spec-named incremental engines: the arrivals-only
// equivalence with the default engine and the release-ring/Close race.

import (
	"context"
	"sync"
	"testing"

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
