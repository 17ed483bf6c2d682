package fabric

// Tests for the low-latency admission pipeline: the pooled-ticket
// zero-allocation guarantee on the Connect enqueue path, release-ring
// wraparound, exactly-once drain and the drain racing Close, and ticket
// cancellation racing the pool.
// ci runs this package under -race -count=2, which is where the
// concurrency assertions bite.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/topology"
)

// TestConnectEnqueueZeroAllocs is the regression guard for the pooled
// admission path: a pooled ticket + enqueue must not allocate at steady
// state. No epoch can run (huge BatchSize, hour MaxWait), so the test
// plays the epoch's part by hand: swap the queue out, claim the ticket,
// recycle — exactly the bookkeeping flushLocked and the Connect receive
// path perform, minus scheduling (which allocates the Handle and is not
// the enqueue path).
func TestConnectEnqueueZeroAllocs(t *testing.T) {
	if raceEnabled {
		// Under the detector sync.Pool drops a quarter of its Puts, and a
		// ticket made afresh is four objects now that it carries a spare
		// Handle: the floor of the mean is no longer 0.
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tree := topology.MustNew(2, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 1 << 20, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		tk := m.getTicket(0, 5)
		if _, err := m.enqueue(ctx, nil, tk); err != nil {
			t.Fatal(err)
		}
		m.qmu.Lock()
		m.pending = m.pending[:0]
		m.clients = 0
		m.qmu.Unlock()
		if !tk.state.CompareAndSwap(ticketWaiting, ticketClaimed) {
			t.Fatal("ticket not in waiting state")
		}
		m.putTicket(tk)
	})
	if allocs != 0 {
		t.Errorf("Connect enqueue path allocates %.1f objects/op, want 0", allocs)
	}
}

// raceEnabled is set by race_test.go when the race detector is built in.
var raceEnabled bool

// TestGrantOneAlloc pins the whole grant round trip on a bare Manager:
// Connect + Release at BatchSize 1 allocates exactly the Handle — the
// route of a tree up to four levels deep lives inside it, the ticket is
// pooled, and the slice registry only grows while it warms up.
func TestGrantOneAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m, err := New(Config{Tree: topology.MustNew(3, 4, 4), BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		h, err := m.Connect(ctx, 0, 63)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("Connect + Release allocates %.1f objects/op, want 1 (the Handle)", allocs)
	}
}

// TestReleaseRingWraparoundFull drives the ring through several full
// laps: a full ring must refuse the push (the caller degrades to the
// synchronous release path) and the mask arithmetic must stay correct
// as head and tail wrap.
func TestReleaseRingWraparoundFull(t *testing.T) {
	const capacity = 4
	r := newReleaseRing(capacity)
	hs := make([]*Handle, capacity+1)
	for i := range hs {
		hs[i] = &Handle{}
	}
	for lap := 0; lap < 5; lap++ {
		for i := 0; i < capacity; i++ {
			if !r.push(hs[i]) {
				t.Fatalf("lap %d: push %d refused on a non-full ring", lap, i)
			}
		}
		if r.push(hs[capacity]) {
			t.Fatalf("lap %d: push accepted on a full ring", lap)
		}
		got := r.drain(nil)
		if len(got) != capacity {
			t.Fatalf("lap %d: drain returned %d handles, want %d", lap, len(got), capacity)
		}
		for i, h := range got {
			if h != hs[i] {
				t.Fatalf("lap %d: drained[%d] = %p, want %p (FIFO)", lap, i, h, hs[i])
			}
		}
		if got := r.drain(got[:0]); len(got) != 0 {
			t.Fatalf("lap %d: drain of an empty ring returned %d handles", lap, len(got))
		}
	}
}

// TestReleaseRingDrainStopsAtUnpublishedSlot catches a producer between
// its claim (the CAS on tail) and its publish (the slot store): the drain
// must hand over what was published before that slot, leave head on it,
// and pick it up — and everything queued behind it, in order — once the
// store lands. Nothing is lost, skipped or handed over twice.
func TestReleaseRingDrainStopsAtUnpublishedSlot(t *testing.T) {
	r := newReleaseRing(8)
	hs := make([]*Handle, 5)
	for i := range hs {
		hs[i] = &Handle{dst: i}
	}
	r.push(hs[0])
	r.push(hs[1])
	stalled := r.tail.Add(1) - 1 // a producer claims the next slot and stalls
	r.push(hs[3])
	r.push(hs[4])

	got := r.drain(nil)
	if len(got) != 2 || got[0] != hs[0] || got[1] != hs[1] {
		t.Fatalf("drain past a stalled producer returned %d handles, want the two published before it", len(got))
	}
	if got := r.drain(nil); len(got) != 0 {
		t.Fatalf("second drain returned %d handles while the producer is still stalled", len(got))
	}
	if head := r.head.Load(); head != stalled {
		t.Fatalf("head = %d, want %d (parked on the unpublished slot)", head, stalled)
	}
	r.slot[stalled&r.mask].Store(hs[2]) // the producer publishes
	got = r.drain(nil)
	if len(got) != 3 || got[0] != hs[2] || got[1] != hs[3] || got[2] != hs[4] {
		t.Fatalf("drain after the publish returned %d handles, want the stalled one and the two behind it, in order", len(got))
	}
	if r.head.Load() != r.tail.Load() {
		t.Fatalf("ring not empty: head %d, tail %d", r.head.Load(), r.tail.Load())
	}
}

// TestReleaseRingConcurrentExactlyOnce hammers the ring with concurrent
// producers while a single consumer (holding its own lock, as m.mu is
// in drainReleasesLocked) drains it pass by pass, and checks every handle
// comes out exactly once, each producer's in the order it pushed them. Producers whose push finds the ring full retry — the
// manager's fallback is releaseSlow, but for the ring invariant what
// matters is that no accepted handle is ever lost or duplicated.
func TestReleaseRingConcurrentExactlyOnce(t *testing.T) {
	const (
		producers = 8
		perProd   = 500
	)
	r := newReleaseRing(16)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				h := &Handle{src: p, dst: i}
				for !r.push(h) {
					runtime.Gosched() // full: let the consumer run
				}
			}
		}(p)
	}
	var cmu sync.Mutex // the consumer lock, standing in for m.mu
	seen := make(map[*Handle]int)
	next := make([]int, producers) // each producer's handles arrive in its own order
	var buf []*Handle
	for popped := 0; popped < producers*perProd; {
		cmu.Lock()
		buf = r.drain(buf[:0])
		cmu.Unlock()
		if len(buf) == 0 {
			runtime.Gosched()
			continue
		}
		for _, h := range buf {
			if h.dst != next[h.src] {
				t.Fatalf("producer %d: handle %d drained where %d was due", h.src, h.dst, next[h.src])
			}
			next[h.src]++
			seen[h]++
		}
		popped += len(buf)
	}
	wg.Wait()
	if got := r.drain(nil); len(got) != 0 {
		t.Fatalf("ring not empty after draining all pushes: %d left", len(got))
	}
	for h, n := range seen {
		if n != 1 {
			t.Fatalf("handle %d→%d drained %d times, want exactly once", h.src, h.dst, n)
		}
	}
	if len(seen) != producers*perProd {
		t.Fatalf("drained %d distinct handles, want %d", len(seen), producers*perProd)
	}
}

// TestReleaseRingDrainRacesClose races fast-path releases against Close:
// every parked handle must be retired exactly once — no grant may be
// dropped between the ring and the final drain — leaving Released ==
// grants and zero occupancy, under the default engine's first-fit pick and
// the reuse-cost score. The ring is kept tiny (the one caller of
// newManager's ring-size argument) so some releases overflow to the
// synchronous path mid-shutdown.
func TestReleaseRingDrainRacesClose(t *testing.T) {
	for _, mode := range []struct{ name, spec string }{
		{"batch", ""}, {"reuse-cost", "level-wise,rollback,reuse-cost=4"},
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

// TestCancelRacesPooledTickets stresses context cancellation against
// epoch claims now that tickets are pooled: a ticket the epoch's CAS
// claimed must have its verdict honored even if the context fired, and
// a cancel-won ticket must never be recycled while an epoch might
// still touch it. CheckInvariants and the race detector are the
// assertions; ci runs this with -race -count=2.
func TestCancelRacesPooledTickets(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	m, err := New(Config{Tree: tree, BatchSize: 8, MaxWait: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 16
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			nodes := tree.Nodes()
			for i := 0; i < 300; i++ {
				// A timeout in the same band as MaxWait lands cancellations
				// on both sides of the epoch's claim.
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(150))*time.Microsecond)
				h, err := m.Connect(ctx, rng.Intn(nodes), rng.Intn(nodes))
				cancel()
				switch {
				case err == nil:
					if err := m.Release(h); err != nil {
						errs[id] = fmt.Errorf("release: %w", err)
						return
					}
				case errors.Is(err, ErrUnroutable), errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrAdmitTimeout):
				default:
					errs[id] = fmt.Errorf("connect: %w", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if s := m.Stats(); s.Active != 0 {
		t.Errorf("active = %d after full release, want 0", s.Active)
	}
}

// TestDrainRefusedCounter: ErrDraining exits count under DrainRefused,
// not Overflow — shutdown refusals and backpressure overflow are
// separately attributable.
func TestDrainRefusedCounter(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	m, err := New(Config{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Connect(context.Background(), 0, 5); !errors.Is(err, ErrDraining) {
			t.Fatalf("connect while draining = %v, want ErrDraining", err)
		}
	}
	s := m.Stats()
	if s.DrainRefused != 3 {
		t.Errorf("drain_refused = %d, want 3", s.DrainRefused)
	}
	if s.Overflow != 0 {
		t.Errorf("overflow = %d, want 0 — drain refusals must not double-count", s.Overflow)
	}
	if s.Offered != 0 {
		t.Errorf("offered = %d, want 0 — refused requests never enter the queue", s.Offered)
	}
}
