package fabric

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/sched"
	"repro/internal/topology"
)

// TestConcurrentMixed is the acceptance workload: 64 concurrent clients
// mixing Connect and Release on FT(3,8) under the race detector. It
// verifies CheckInvariants once every client is done, and that every
// verdict was delivered exactly once. (A channel granted twice would have
// panicked a release on the way.)
func TestConcurrentMixed(t *testing.T) {
	tree := topology.MustNew(3, 8, 8)
	m, err := New(Config{Tree: tree, BatchSize: 16, MaxWait: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 64
	const iters = 40
	var clientGrants atomic.Uint64 // verdicts are delivered exactly once
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 1))
			var held []*Handle
			for i := 0; i < iters; i++ {
				ctx := context.Background()
				if i%13 == 7 {
					// Exercise the cancellation path with an already-
					// expired context; any of overflow / cancelled /
					// granted (claim race) is a legal outcome.
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(context.Background())
					cancel()
				}
				h, err := m.Connect(ctx, rng.Intn(tree.Nodes()), rng.Intn(tree.Nodes()))
				if err != nil {
					if !errors.Is(err, ErrUnroutable) && !errors.Is(err, context.Canceled) && !errors.Is(err, ErrClosed) {
						t.Errorf("client %d: unexpected connect error: %v", id, err)
					}
				} else {
					clientGrants.Add(1)
					held = append(held, h)
				}
				// Mixed workload: shed circuits so links churn.
				for len(held) > 3 || (len(held) > 0 && rng.Intn(2) == 0) {
					if err := m.Release(held[0]); err != nil {
						t.Errorf("client %d: release: %v", id, err)
					}
					held = held[1:]
				}
			}
			for _, h := range held {
				if err := h.Release(); err != nil {
					t.Errorf("client %d: final release: %v", id, err)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	s := m.Stats()
	if s.Granted != s.Released || s.Granted != clientGrants.Load() {
		t.Errorf("granted %d, released %d, clients saw %d grants after full drain", s.Granted, s.Released, clientGrants.Load())
	}
	if s.Active != 0 {
		t.Errorf("active = %d after full drain", s.Active)
	}
	if s.Utilization != 0 {
		t.Errorf("utilization = %v after full drain", s.Utilization)
	}
	if s.Offered == 0 || s.Granted == 0 {
		t.Fatalf("degenerate run: %+v", s)
	}
	if s.EpochSize.N == 0 || s.EpochSize.Mean <= 1 {
		t.Errorf("no epoch batching observed: %+v", s.EpochSize)
	}
}

// gatedScheduler blocks its first Schedule call until released, letting
// tests hold an epoch (and the manager lock) mid-pass.
type gatedScheduler struct {
	inner    core.Scheduler
	entered  chan struct{}
	released chan struct{}
	once     sync.Once
}

func newGatedScheduler() *gatedScheduler {
	return &gatedScheduler{
		inner:    &core.LevelWise{Opts: core.Options{Rollback: true}},
		entered:  make(chan struct{}),
		released: make(chan struct{}),
	}
}

func (g *gatedScheduler) Name() string { return "gated/" + g.inner.Name() }

func (g *gatedScheduler) Schedule(st *linkstate.State, reqs []core.Request) *core.Result {
	g.once.Do(func() {
		close(g.entered)
		<-g.released
	})
	return g.inner.Schedule(st, reqs)
}

// TestAdmitTimeout parks a request in an unflushable epoch and checks
// the configured admission timeout pulls it out as cancelled, at its due
// time and not 1 ns before.
func TestAdmitTimeout(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	clk := clock.NewFake()
	m, err := New(Config{Tree: tree, BatchSize: 4, MaxWait: time.Hour, AdmitTimeout: 25 * time.Millisecond, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := m.Connect(context.Background(), 0, 5)
		errc <- err
	}()
	waitFor(t, func() bool { return queueDepth(m) == 1 })
	clk.Advance(25*time.Millisecond - 1)
	select {
	case err := <-errc:
		t.Fatalf("parked connect returned %v before its admission timeout", err)
	default:
	}
	clk.Advance(1)
	if err := <-errc; !errors.Is(err, ErrAdmitTimeout) {
		t.Fatalf("parked connect: got %v, want ErrAdmitTimeout", err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Offered != 1 || s.Cancelled != 1 || s.Granted != 0 {
		t.Errorf("counters after admit timeout: %+v", s)
	}
}

// TestBackpressureOverflow fills the one-slot queue while an epoch is
// stuck mid-pass and checks a further request blocks in backpressure
// until its context expires, counted as overflow (never offered).
func TestBackpressureOverflow(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	gate := newGatedScheduler()
	m, err := New(Config{Tree: tree, BatchSize: 1, MaxWait: time.Hour, QueueLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.eng = sched.Wrap(gate) // before any Connect: no epoch has read it yet
	errc := make(chan error, 2)
	go func() { // A: claimed immediately (BatchSize 1), stuck at the gate
		_, err := m.Connect(context.Background(), 0, 5)
		errc <- err
	}()
	<-gate.entered
	go func() { // B: takes the queue's one place, blocks on the epoch lock
		_, err := m.Connect(context.Background(), 1, 6)
		errc <- err
	}()
	waitFor(t, func() bool { return queueDepth(m) == 1 })
	// C: no slot available and the epoch is stuck — backpressure until
	// the context deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	if _, err := m.Connect(ctx, 2, 7); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("backpressured connect: got %v, want deadline exceeded", err)
	}
	close(gate.released)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Errorf("parked connect: %v", err)
		}
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", s.Overflow)
	}
	if s.Offered != 2 || s.Granted != 2 {
		t.Errorf("counters: %+v", s)
	}
}

// TestBackpressureWakesAll holds an epoch at the gate with a queue of
// QueueLimit k full behind it and k more Connects waiting for room, then
// checks the three ways a wait ends: every waiter gets in once the gate
// opens, Close refuses every waiter with ErrDraining, counted under
// DrainRefused, and a waiter whose context ends counts one Overflow.
func TestBackpressureWakesAll(t *testing.T) {
	const k = 4
	tree := topology.MustNew(2, 4, 4)
	// jam starts 3k Connects: k run the epoch stuck at the gate, k fill
	// the queue and k wait for room. Connect i goes from leaf switch i/k to
	// the next one, so no two groups share a channel and all 3k are
	// granted whatever epochs they land in.
	jam := func(t *testing.T) (*Manager, *gatedScheduler, chan error) {
		gate := newGatedScheduler()
		m, err := New(Config{Tree: tree, BatchSize: k, QueueLimit: k, MaxWait: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		m.eng = sched.Wrap(gate) // before any Connect: no epoch has read it yet
		errc := make(chan error, 3*k)
		for i := 0; i < 3*k; i++ {
			switch i {
			case k:
				<-gate.entered
			case 2 * k:
				waitFor(t, func() bool { return queueDepth(m) == k })
			}
			go func() {
				_, err := m.Connect(context.Background(), i, i+k)
				errc <- err
			}()
		}
		waitFor(t, func() bool { return waitingForRoom() == k })
		return m, gate, errc
	}
	// next is the next Connect's verdict; a wake-up that never comes fails
	// here rather than hanging the suite.
	next := func(t *testing.T, errc chan error) error {
		t.Helper()
		select {
		case err := <-errc:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("no Connect returned within 5s")
			return nil
		}
	}
	admitted := func(t *testing.T, errc chan error, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := next(t, errc); err != nil {
				t.Fatalf("connect: %v", err)
			}
		}
	}
	counts := func(t *testing.T, m *Manager, granted, overflow, refused uint64) {
		t.Helper()
		if err := m.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		s := m.Stats()
		if s.Offered != granted || s.Granted != granted || s.Overflow != overflow || s.DrainRefused != refused {
			t.Fatalf("offered %d granted %d overflow %d drain_refused %d, want %d, %d, %d, %d",
				s.Offered, s.Granted, s.Overflow, s.DrainRefused, granted, granted, overflow, refused)
		}
	}

	t.Run("gate-opens", func(t *testing.T) {
		m, gate, errc := jam(t)
		close(gate.released)
		admitted(t, errc, 3*k)
		counts(t, m, 3*k, 0, 0)
	})
	t.Run("close", func(t *testing.T) {
		m, gate, errc := jam(t)
		closed := make(chan error, 1)
		go func() { closed <- m.Close(context.Background()) }()
		for i := 0; i < k; i++ { // only the waiters can answer before the gate opens
			if err := next(t, errc); !errors.Is(err, ErrDraining) {
				t.Fatalf("waiter at Close: %v, want ErrDraining", err)
			}
		}
		close(gate.released)
		admitted(t, errc, 2*k)
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		counts(t, m, 2*k, 0, k)
	})
	t.Run("ctx", func(t *testing.T) {
		m, gate, errc := jam(t)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			_, err := m.Connect(ctx, 0, 15)
			errc <- err
		}()
		waitFor(t, func() bool { return waitingForRoom() == k+1 })
		cancel()
		if err := next(t, errc); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter: %v, want context.Canceled", err)
		}
		close(gate.released)
		admitted(t, errc, 3*k)
		counts(t, m, 3*k, 1, 0)
	})
}

// waitingForRoom counts the goroutines inside enqueue: while the queue is
// full, each of them is waiting for room or about to.
func waitingForRoom() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("fabric.(*Manager).enqueue("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestCloseDrains parks several requests in an unflushable epoch and
// checks Close grants them all before shutting down.
func TestCloseDrains(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 100, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const parked = 5
	errc := make(chan error, parked)
	for i := 0; i < parked; i++ {
		go func(i int) {
			h, err := m.Connect(context.Background(), i, 32+i)
			if err == nil {
				err = h.Release()
			}
			errc <- err
		}(i)
	}
	waitFor(t, func() bool { return m.Stats().QueueDepth == parked })
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < parked; i++ {
		if err := <-errc; err != nil {
			t.Errorf("parked connect %d: %v", i, err)
		}
	}
	if _, err := m.Connect(context.Background(), 0, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("connect after close: got %v, want ErrClosed", err)
	}
	s := m.Stats()
	if s.Offered != parked || s.Granted != parked {
		t.Errorf("drain counters: %+v", s)
	}
	if s.Epochs != 1 {
		t.Errorf("drain used %d epochs, want 1", s.Epochs)
	}
}

// TestConnectValidation covers bad endpoints and double release.
func TestConnectValidation(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	if _, err := m.Connect(context.Background(), -1, 0); err == nil {
		t.Error("negative src accepted")
	}
	if _, err := m.Connect(context.Background(), 0, tree.Nodes()); err == nil {
		t.Error("out-of-range dst accepted")
	}
	h, err := m.Connect(context.Background(), 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(h); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(h); !errors.Is(err, ErrReleased) {
		t.Errorf("double release: got %v, want ErrReleased", err)
	}
	if err := m.Release(nil); err == nil {
		t.Error("nil handle accepted")
	}
	s := m.Stats()
	if s.Offered != 1 {
		t.Errorf("validation failures were counted offered: %+v", s)
	}
}

// TestNewValidation covers config defaulting and errors.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil tree accepted")
	}
	tree := topology.MustNew(2, 2, 2)
	m, err := New(Config{Tree: tree, BatchSize: 8, QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	if m.cfg.QueueLimit != 8 {
		t.Errorf("QueueLimit = %d, want raised to BatchSize 8", m.cfg.QueueLimit)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// queueDepth reads the admission queue's length under qmu.
func queueDepth(m *Manager) int {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	return len(m.pending)
}

// waitFor polls cond until it holds, yielding between polls, and fails the
// test after 5 s. It waits on other goroutines, not on time: a test that
// needs time to pass advances a clock.Fake.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		runtime.Gosched()
	}
}
