package fabric

// Tests of the published view (view.go): Routable is Level-wise first-fit
// on the rows, readers racing churn see no torn row, and a manager nobody
// asks never publishes. That the view equals the rows whenever mu is free
// is CheckInvariants', held after every generated operation
// (generator_test.go).

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// routableMismatch holds the manager quiescent (mu held, parked releases
// retired) and compares Routable with the oracle for every pair: the core
// Level-wise scheduler, first-fit with rollback, run on a copy of the live
// rows. It names the first pair they disagree on, nil if none.
func routableMismatch(m *Manager) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drainReleasesLocked()
	tree := m.cfg.Tree
	snap := m.st.Snapshot()
	cp := linkstate.New(tree)
	cp.Restore(snap)
	lw := &core.LevelWise{Opts: core.Options{Rollback: true}}
	sc := core.NewScratch()
	req := make([]core.Request, 1)
	for src := 0; src < tree.Nodes(); src++ {
		for dst := 0; dst < tree.Nodes(); dst++ {
			req[0] = core.Request{Src: src, Dst: dst}
			want := lw.ScheduleInto(cp, req, sc).Outcomes[0].Granted
			if want {
				cp.Restore(snap) // a denial rolled back; a grant must be undone
			}
			if got := m.Routable(src, dst); got != want {
				return fmt.Errorf("Routable(%d, %d) = %v, Level-wise first-fit on the rows says %v", src, dst, got, want)
			}
		}
	}
	return nil
}

// TestRoutableRacesChurn: readers call Routable while 32 clients connect
// and release and a link fails and heals mid-run; at quiesce the view is
// the rows and Routable is first-fit on them. Its point is -race.
func TestRoutableRacesChurn(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 4, MaxWait: 100 * time.Microsecond,
		RepairRetries: 2, RepairBackoff: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	nodes := tree.Nodes()
	m.Routable(0, nodes-1)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.Routable(rng.Intn(nodes), rng.Intn(nodes))
			}
		}(int64(r))
	}
	link := &faults.FaultSet{Links: []faults.LinkFault{{Level: 1, Switch: 0, Port: 0}}}
	var clients sync.WaitGroup
	for c := 0; c < 32; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			var held []*Handle
			for i := 0; i < 200; i++ {
				if c == 0 && i == 50 {
					if _, _, err := m.Fail(link); err != nil {
						t.Error(err)
					}
				}
				if c == 0 && i == 150 {
					if _, err := m.Repair(link); err != nil {
						t.Error(err)
					}
				}
				if len(held) == 4 {
					held[0].Release()
					held = held[1:]
				}
				if h, err := m.Connect(context.Background(), rng.Intn(nodes), rng.Intn(nodes)); err == nil {
					held = append(held, h)
				}
			}
			for _, h := range held {
				h.Release()
			}
		}(c)
	}
	clients.Wait()
	close(stop)
	readers.Wait()
	waitFor(t, func() bool { return m.Stats().PendingRepairs == 0 })
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := routableMismatch(m); err != nil {
		t.Fatal(err)
	}
}

// TestNoViewUnlessAsked: a manager nobody calls Routable on publishes
// nothing, however many circuits come and go.
func TestNoViewUnlessAsked(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	n := tree.Nodes()
	for i := 0; i < 1000; i++ {
		if h, err := m.Connect(context.Background(), i%n, (7*i+5)%n); err == nil {
			h.Release()
		}
	}
	if m.view.Load() != nil {
		t.Fatal("a manager nobody asked published a view")
	}
}
