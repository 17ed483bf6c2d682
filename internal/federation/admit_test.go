package federation

// Tests for the lock-free admit path: the allocation guard, and a release
// racing a migration still queued on the surviving plane.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fabric"
	"repro/internal/topology"
)

// raceEnabled is set by race_test.go when the race detector is built in.
var raceEnabled bool

// TestRouterConnectAllocs pins the admit path's allocations on a healthy
// 4-plane least-loaded router: ordering the candidates allocates nothing,
// and a whole Connect + Release allocates the two handles a grant
// returns (the federated one and the plane's) and nothing else.
func TestRouterConnectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := Config{Policy: PolicyLeastLoaded}
	for i := 0; i < 4; i++ {
		cfg.Planes = append(cfg.Planes, PlaneConfig{
			Fabric: fabric.Config{Tree: topology.MustNew(3, 4, 4), BatchSize: 1},
		})
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(context.Background())

	if allocs := testing.AllocsPerRun(1000, func() {
		var buf [inlinePlanes]int
		// Only the length is formatted: handing the slice to Fatalf would
		// itself move buf to the heap.
		if n := len(r.candidates(&buf, 0, 63)); n != 4 {
			t.Fatalf("%d candidates, want 4 planes", n)
		}
	}); allocs != 0 {
		t.Errorf("candidates allocates %.1f objects/op, want 0", allocs)
	}

	ctx := context.Background()
	if allocs := testing.AllocsPerRun(1000, func() {
		h, err := r.Connect(ctx, 0, 63)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("Connect + Release allocates %.1f objects/op, want at most 2 (the two handles)", allocs)
	}
}

// migrationRouter builds a two-plane round-robin router on a fake clock
// for the migration races: plane0 is the victim (every request its own
// epoch), plane1 the survivor, configured by the caller. A circuit the
// victim revokes migrates once the clock has run its repair through every
// attempt: fullBackoff after the first.
func migrationRouter(t *testing.T, survivor fabric.Config) (*Router, *clock.Fake) {
	t.Helper()
	clk := clock.NewFake()
	tree := topology.MustNew(2, 4, 4)
	survivor.Tree = tree
	r, err := New(Config{Policy: PolicyRoundRobin, Clock: clk, Planes: []PlaneConfig{
		{Fabric: fabric.Config{Tree: tree, BatchSize: 1}},
		{Fabric: survivor},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close(context.Background()) })
	return r, clk
}

// fullBackoff is the time from a repair's first attempt to its last.
const fullBackoff = 254 * time.Millisecond

// waitUntil polls cond until it holds (5 s bound).
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// expectDrained asserts no plane holds a circuit or a channel.
func expectDrained(t *testing.T, r *Router) {
	t.Helper()
	for _, ps := range r.Stats().Planes {
		if ps.Fabric.Active != 0 || ps.Occupancy != 0 {
			t.Errorf("plane %s not drained: active %d, occupancy %d", ps.Name, ps.Fabric.Active, ps.Occupancy)
		}
	}
}

// TestReleaseDuringReadmission: the owner releases its handle while the
// cross-plane readmission is still queued on the survivor. Release
// reports nil, the migration hands the fresh circuit straight back
// without grafting it, and nothing is left holding a channel.
func TestReleaseDuringReadmission(t *testing.T) {
	// The survivor waits for a second request before it runs an epoch,
	// which parks the readmission in its queue until the test says go.
	r, clk := migrationRouter(t, fabric.Config{BatchSize: 2, MaxWait: time.Hour})
	fh, err := r.Connect(context.Background(), 0, 15)
	if err != nil || fh.Plane() != "plane0" {
		t.Fatalf("Connect = %v on %v; want plane0", err, fh)
	}
	if err := r.KillPlane("plane0"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(fullBackoff) // the victim's repair runs out of attempts
	survivor := r.planes[1].surf
	waitUntil(t, "the readmission to queue on the survivor", func() bool {
		return r.pendingReadmits.Load() == 1 && survivor.Stats().QueueDepth == 1
	})
	if !fh.Repairing() {
		t.Error("a migrating handle must read as repairing")
	}
	if err := fh.Release(); err != nil {
		t.Fatalf("release mid-migration = %v, want nil", err)
	}
	// The second request fills the survivor's epoch; both are granted.
	filler, err := survivor.Admit(context.Background(), 1, 14)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the readmission to conclude", func() bool { return r.pendingReadmits.Load() == 0 })
	if r.readmitted.Load() != 0 || r.lost.Load() != 0 {
		t.Errorf("readmitted %d, lost %d; a released circuit is neither", r.readmitted.Load(), r.lost.Load())
	}
	fh.mu.Lock()
	grafted := fh.conn
	fh.mu.Unlock()
	if grafted != nil {
		t.Error("the fresh circuit was grafted onto a released handle")
	}
	if err := fh.Release(); !errors.Is(err, ErrReleased) {
		t.Errorf("second release = %v, want ErrReleased", err)
	}
	if s := survivor.Stats(); s.Active != 1 {
		t.Errorf("survivor holds %d circuits, want only the filler", s.Active)
	}
	if err := filler.Release(); err != nil {
		t.Fatal(err)
	}
	expectDrained(t, r)
}
