package fabric

// Tests of the published view (view.go): whenever mu is free it equals the
// link rows word for word, Routable is Level-wise first-fit on them, and a
// manager nobody asks never publishes.

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

// viewMismatchLocked names the first row where the view and the link state
// differ, "" when they agree word for word. Caller holds m.mu.
func viewMismatchLocked(m *Manager) string {
	v := m.view.Load()
	for h := range v.u {
		u, d := m.st.LevelWords(h)
		for i := range u {
			if got := v.u[h][i].Load(); got != u[i] {
				return fmt.Sprintf("Ulink(%d, %d): view %#x, rows %#x", h, i, got, u[i])
			}
			if got := v.d[h][i].Load(); got != d[i] {
				return fmt.Sprintf("Dlink(%d, %d): view %#x, rows %#x", h, i, got, d[i])
			}
		}
	}
	return ""
}

// expectViewMatches checks the view against the rows under mu.
func expectViewMatches(t *testing.T, m *Manager, after string) {
	t.Helper()
	m.mu.Lock()
	msg := viewMismatchLocked(m)
	m.mu.Unlock()
	if msg != "" {
		t.Fatalf("after %s: %s", after, msg)
	}
}

// expectRoutableIsFirstFit holds the manager quiescent (mu held, parked
// releases retired) and compares Routable with the oracle for every pair:
// the core Level-wise scheduler, first-fit with rollback, run on a copy of
// the live rows.
func expectRoutableIsFirstFit(t *testing.T, m *Manager) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drainReleasesLocked()
	if msg := viewMismatchLocked(m); msg != "" {
		t.Fatalf("quiescent: %s", msg)
	}
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
				t.Fatalf("Routable(%d, %d) = %v, Level-wise first-fit on the rows says %v", src, dst, got, want)
			}
		}
	}
}

// TestViewMatchesRows drives seeded sequences of every operation that
// changes a row — epochs of connects with cancellations among them,
// releases, Fail with its revocations, Repair, RepairAll, a flapping link
// into quarantine and out by probation or ClearQuarantine, repairs on
// their backoff timers, Close — and after each one holds the view to the
// rows. Even seeds run a scheduler without rollback, whose denials retain
// partial routes the epoch then returns. Every 100 steps, and after Close,
// Routable is held to Level-wise first-fit for every pair.
func TestViewMatchesRows(t *testing.T) {
	for _, shape := range [][3]int{{2, 4, 4}, {3, 4, 4}, {3, 6, 3}} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("FT%v/seed=%d", shape, seed), func(t *testing.T) {
				viewSequence(t, topology.MustNew(shape[0], shape[1], shape[2]), seed)
			})
		}
	}
}

func viewSequence(t *testing.T, tree *topology.Tree, seed int64) {
	cfg := Config{
		Tree: tree, BatchSize: 1 << 20, MaxWait: time.Hour, // epochs run by hand
		RepairRetries: 3, RepairBackoff: 100 * time.Microsecond,
		FlapThreshold: 1.5, FlapHalfLife: time.Minute, QuarantineProbation: time.Millisecond,
	}
	if seed%2 == 0 {
		cfg.Scheduler = core.NewLevelWise() // no rollback
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	nodes := tree.Nodes()
	m.Routable(0, nodes-1) // switches the view on
	expectViewMatches(t, m, "switching the view on")

	rng := rand.New(rand.NewSource(seed))
	randomLink := func() *faults.FaultSet {
		h := rng.Intn(tree.LinkLevels())
		return &faults.FaultSet{Links: []faults.LinkFault{{
			Level: h, Switch: rng.Intn(tree.SwitchesAt(h)), Port: rng.Intn(tree.Parents()),
			Direction: faults.Direction(rng.Intn(3)),
		}}}
	}
	var held []*Handle
	for step := 0; step < 400; step++ {
		var op string
		switch k := rng.Intn(20); {
		case k < 8:
			op = "an epoch"
			tickets := make([]*ticket, 1+rng.Intn(6))
			cancelled := make([]bool, len(tickets))
			for i := range tickets {
				tickets[i] = m.getTicket(rng.Intn(nodes), rng.Intn(nodes))
				if err := m.acquireSlot(context.Background(), nil); err != nil {
					t.Fatal(err)
				}
				if ok, _ := m.enqueue(tickets[i]); !ok {
					t.Fatal("enqueue refused on an open manager")
				}
			}
			for i, tk := range tickets {
				// Connect's cancellation: the ticket leaves before its epoch.
				if rng.Intn(4) == 0 && tk.state.CompareAndSwap(ticketWaiting, ticketCancelled) {
					m.cancelled.Add(1)
					cancelled[i] = true
				}
			}
			m.mu.Lock()
			b := m.flushLocked()
			m.mu.Unlock()
			m.deliver(b)
			for i, tk := range tickets {
				if !cancelled[i] {
					if r := <-tk.resp; r.err == nil {
						held = append(held, r.h)
					}
				}
			}
		case k < 13 && len(held) > 0:
			op = "a release"
			i := rng.Intn(len(held))
			held[i].Release() // a handle the repair loop gave up on reports why; nothing to check
			held = append(held[:i], held[i+1:]...)
		case k < 15:
			op = "Fail"
			if _, _, err := m.Fail(randomLink()); err != nil {
				t.Fatal(err)
			}
		case k < 17:
			op = "Repair"
			if fs := m.Faults(); len(fs.Links) > 0 {
				link := fs.Links[rng.Intn(len(fs.Links))]
				if _, err := m.Repair(&faults.FaultSet{Links: []faults.LinkFault{link}}); err != nil {
					t.Fatal(err)
				}
			}
		case k == 17:
			op = "a flapping link"
			link := randomLink()
			for i := 0; i < 2; i++ { // the second down-transition quarantines it
				if _, _, err := m.Fail(link); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Repair(link); err != nil {
					t.Fatal(err)
				}
			}
		case k == 18:
			op = "RepairAll"
			m.RepairAll()
		default:
			op = "ClearQuarantine"
			m.ClearQuarantine()
		}
		expectViewMatches(t, m, fmt.Sprintf("step %d, %s", step, op))
		if step%100 == 99 {
			expectRoutableIsFirstFit(t, m)
		}
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	expectViewMatches(t, m, "Close")
	for _, h := range held {
		h.Release()
	}
	expectRoutableIsFirstFit(t, m)
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
	expectRoutableIsFirstFit(t, m)
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

// TestWideTreeHasNoView: rows wider than one word (w > 64) have no view,
// and Routable says yes even for a pair the plane denies.
func TestWideTreeHasNoView(t *testing.T) {
	tree := topology.MustNew(2, 2, 65)
	m, err := New(Config{Tree: tree, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	for i := 0; i < tree.Parents(); i++ { // every route 0→2 has
		if _, err := m.Connect(context.Background(), 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Connect(context.Background(), 0, 2); err == nil {
		t.Fatal("a saturated pair was granted")
	}
	if !m.Routable(0, 2) {
		t.Error("Routable said no on a tree with no view")
	}
	if m.view.Load() != nil {
		t.Error("a w > 64 tree published a view")
	}
}
