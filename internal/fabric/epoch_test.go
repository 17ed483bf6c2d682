package fabric

// Tests for who runs an epoch and who may read a route: the scheduling
// lock belongs to epochs, so route reads take no lock, a full batch is
// run by its closer and never waits for the MaxWait deadline, one
// deadline covers every batch opened while it is pending, and the
// manager owns no goroutine. ci runs these under -race -count=2.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/faults"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// TestHandleSize pins the Handle to the 128-byte size class: fed_degraded
// holds 1280 of them, every pooled ticket keeps a spare one, and mem_mb is
// a gated metric.
func TestHandleSize(t *testing.T) {
	if got := unsafe.Sizeof(Handle{}); got > 128 {
		t.Errorf("unsafe.Sizeof(Handle{}) = %d, want <= 128", got)
	}
}

// TestPortsDoesNotTakeSchedulingLock: Ports returns while the test holds
// the scheduling lock, as an epoch would.
func TestPortsDoesNotTakeSchedulingLock(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	h, err := m.Connect(context.Background(), 0, tree.Nodes()-1)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []int, 1)
	m.mu.Lock()
	go func() { got <- h.Ports() }()
	select {
	case ports := <-got:
		m.mu.Unlock()
		if len(ports) != tree.AncestorLevel(0, tree.Nodes()-1) {
			t.Errorf("Ports() = %v, want one port per level below the ancestor", ports)
		}
	case <-time.After(5 * time.Second):
		m.mu.Unlock()
		t.Fatal("Ports() blocked on the scheduling lock")
	}
}

// TestPortsRacesRepair loops Ports on held circuits while faults revoke
// them and the repair loop re-routes them. Every read must be empty or
// one whole route: the right length for its endpoints (AllocatePath on a
// fresh state accepts it) and one the manager actually published for
// that circuit — never a mix of the old route and the new one. Under
// -race a route rewritten in place is also a reported data race.
func TestPortsRacesRepair(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	cfg := fastRepair(tree)
	var jmu sync.Mutex
	published := make(map[string]bool) // "src→dst:ports" of every grant and repair
	key := func(src, dst int, ports []int) string { return fmt.Sprintf("%d→%d:%v", src, dst, ports) }
	cfg.Trace = func(e Event) {
		if e.Kind == EventGrant || e.Kind == EventRepair {
			jmu.Lock()
			published[key(e.Src, e.Dst, e.Ports)] = true
			jmu.Unlock()
		}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	// One circuit per level-0 switch, so a repair always has a spare port.
	const circuits = 8
	var held []*Handle
	for i := 0; i < circuits; i++ {
		src := i * tree.Children()
		h, err := m.Connect(context.Background(), src, tree.Nodes()-1-src)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, h)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	seen := make([]map[string]bool, circuits)
	for i, h := range held {
		seen[i] = make(map[string]bool)
		wg.Add(1)
		go func(h *Handle, seen map[string]bool) {
			defer wg.Done()
			st := linkstate.New(tree)
			for !stop.Load() {
				ports := h.Ports()
				if len(ports) == 0 {
					continue // repairing
				}
				if err := st.AllocatePath(h.Src(), h.Dst(), ports); err != nil {
					t.Errorf("Ports() = %v is not a route %d→%d: %v", ports, h.Src(), h.Dst(), err)
					return
				}
				if err := st.ReleasePath(h.Src(), h.Dst(), ports); err != nil {
					t.Error(err)
					return
				}
				seen[key(h.Src(), h.Dst(), ports)] = true
			}
		}(h, seen[i])
	}
	// Each cycle fails the link under one circuit's first hop — so the
	// repair must pick another port — waits for the repair loop to settle
	// and heals the fabric again.
	for cycle := 0; cycle < 40; cycle++ {
		h := held[cycle%circuits]
		ports := h.Ports()
		if len(ports) == 0 {
			t.Fatalf("cycle %d: circuit %d→%d has no route on a healed fabric", cycle, h.Src(), h.Dst())
		}
		if _, err := m.FailLink(0, h.Src()/tree.Children(), ports[0], faults.Both); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return m.Stats().PendingRepairs == 0 })
		m.RepairAll()
	}
	stop.Store(true)
	wg.Wait()
	s := m.Stats()
	if s.Repaired == 0 || s.RepairFailed != 0 {
		t.Fatalf("repaired %d, failed %d: the cycles must re-route circuits, not lose them", s.Repaired, s.RepairFailed)
	}
	for i := range seen {
		for route := range seen[i] {
			if !published[route] {
				t.Errorf("Ports() returned %s, which no grant or repair ever published", route)
			}
		}
	}
}

// TestSizeClosingNeverStrands: with MaxWait an hour away, a queue that
// reaches BatchSize must be run by its closer (or by Fail's poke), never
// by the timer — including when repair tickets carry the depth past the
// threshold so that no Connect ever observes it exactly.
func TestSizeClosingNeverStrands(t *testing.T) {
	const batch = 4
	tree := topology.MustNew(3, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: batch, MaxWait: time.Hour,
		RepairBackoff: 500 * time.Microsecond, RepairRetries: 4})
	if err != nil {
		t.Fatal(err)
	}
	var verdicts, closedReleases atomic.Int64
	var wg sync.WaitGroup
	// A circuit a fault caught may have exhausted its repairs by the time
	// its owner lets go; that is a verdict too, not a stranded request. So
	// is a repair that Close aborted — its ticket may still sit in a
	// partial batch, MaxWait being an hour — but only for a circuit the
	// books count under RepairAborted, which the end of the test checks.
	release := func(h *Handle) {
		switch err := h.Release(); {
		case err == nil || errors.Is(err, ErrUnroutableDegraded):
		case errors.Is(err, ErrClosed):
			closedReleases.Add(1)
		default:
			t.Errorf("release %d→%d: %v", h.Src(), h.Dst(), err)
		}
	}
	connect := func(src, dst int, keep chan<- *Handle) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := m.Connect(context.Background(), src, dst)
			verdicts.Add(1)
			switch {
			case errors.Is(err, ErrUnroutable) && keep == nil: // a clean denial is a verdict
			case err != nil:
				t.Errorf("connect %d→%d: %v", src, dst, err)
			case keep != nil:
				keep <- h
			default:
				release(h)
			}
		}()
	}
	far := func(i int) int { return tree.Nodes() - 1 - i }

	// One full batch of held circuits for the faults to revoke, each on a
	// level-0 switch of its own so a repair always has a spare port.
	keep := make(chan *Handle, batch)
	for i := 0; i < batch; i++ {
		connect(i*tree.Children(), far(i*tree.Children()), keep)
	}
	var held []*Handle
	for i := 0; i < batch; i++ {
		held = append(held, <-keep)
	}

	// A partial batch, then a fault that revokes two circuits: their
	// repair tickets take the depth from batch-1 past batch at once.
	for i := 0; i < batch-1; i++ {
		connect(1+i, far(1+i), nil)
	}
	waitFor(t, func() bool { return m.Stats().QueueDepth == batch-1 })
	fs := &faults.FaultSet{}
	for _, h := range held[:2] {
		fs.Links = append(fs.Links, faults.LinkFault{Level: 0, Switch: h.Src() / tree.Children(), Port: h.Ports()[0], Direction: faults.Both})
	}
	if _, revoked, err := m.Fail(fs); err != nil || revoked != 2 {
		t.Fatalf("Fail revoked %d (%v), want 2", revoked, err)
	}
	waitFor(t, func() bool { return verdicts.Load() == 2*batch-1 })

	// k·BatchSize concurrent Connects race another fault and its repairs.
	const k = 8
	want := verdicts.Load() + k*batch
	for i := 0; i < k*batch; i++ {
		connect(i%tree.Nodes(), far(i%tree.Nodes()), nil)
	}
	if _, _, err := m.Fail(&faults.FaultSet{Links: []faults.LinkFault{
		{Level: 0, Switch: held[2].Src() / tree.Children(), Port: held[2].Ports()[0], Direction: faults.Both},
	}}); err != nil {
		t.Fatal(err)
	}
	// Repair tickets shared those epochs, so fewer than a batch of the
	// Connects may be left over; top the queue up one request at a time
	// until they are through. What is never allowed is a full queue that
	// sits: waitFor fails the test long before the timer would run it.
	for verdicts.Load() < want {
		waitFor(t, func() bool { return m.Stats().QueueDepth < batch })
		if verdicts.Load() >= want {
			break
		}
		offered := m.Stats().Offered
		connect(0, far(0), nil)
		want++
		waitFor(t, func() bool { return m.Stats().Offered > offered })
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for _, h := range held {
		release(h)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	s := m.Stats()
	if s.Active != 0 || s.Occupancy != 0 {
		t.Errorf("books do not close: %+v", s)
	}
	if n := closedReleases.Load(); n > int64(s.RepairAborted) {
		t.Errorf("%d releases reported a closed manager, but only %d repairs were aborted", n, s.RepairAborted)
	}
	if s.Revoked != s.Repaired+s.RepairFailed+s.RepairAborted {
		t.Errorf("revoked %d != repaired %d + repair_failed %d + repair_aborted %d",
			s.Revoked, s.Repaired, s.RepairFailed, s.RepairAborted)
	}
}

// TestDeadlineCoversLaterBatch: the deadline is armed once, for the batch
// that opened with none pending. A partial batch opened while it is still
// pending arms nothing — the pending one fires first and re-arms for the
// remainder — and must still be run MaxWait after it opened. (On a host
// stalled for longer than MaxWait batch 1 is run by its own deadline and
// the test degenerates to a plain deadline test; it must pass either way.)
func TestDeadlineCoversLaterBatch(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 2, MaxWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	// Batch 1: A opens it and arms the deadline, B fills it and runs it.
	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := m.Connect(context.Background(), i, 8+i)
			errc <- err
		}(i)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	before := m.Stats().Epochs
	// Batch 2 opens under batch 1's deadline and never fills.
	go func() {
		_, err := m.Connect(context.Background(), 2, 10)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the later batch was never run: no deadline covered it")
	}
	if got := m.Stats().Epochs; got != before+1 {
		t.Errorf("epochs = %d, want %d", got, before+1)
	}
}

// TestIdleManagerRunsNoGoroutine: New starts no goroutine and Close leaves
// none behind. Goroutines of earlier tests (fired timers) may come and go
// meanwhile, so one clean observation within waitFor's bound is the
// assertion; a manager that owned a goroutine would never give one.
func TestIdleManagerRunsNoGoroutine(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	waitFor(t, func() bool {
		before := runtime.NumGoroutine()
		m, err := New(Config{Tree: tree})
		if err != nil {
			t.Fatal(err)
		}
		idle := runtime.NumGoroutine()
		if err := m.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		return idle <= before && runtime.NumGoroutine() <= before
	})
}
