package federation

// Tests of the admission walk over the planes' published rows: the policy
// orders the planes, Routable decides which go first, and every plane the
// policy offers is still tried.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/topology"
)

// saturate holds (0,2)'s only route on each named plane of an FT(2,2,1)
// router until the test ends.
func saturate(t *testing.T, r *Router, names ...string) {
	t.Helper()
	for _, name := range names {
		surf, _ := r.Plane(name)
		c, err := surf.Admit(context.Background(), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Release() })
	}
}

// planeOffered is each plane's fabric Offered counter, in index order.
func planeOffered(r *Router) []uint64 {
	var out []uint64
	for _, ps := range r.Stats().Planes {
		out = append(out, ps.Fabric.Offered)
	}
	return out
}

// TestSaturatedFirstChoiceNotTried: the hash policy's first choice for a
// pair is saturated for it, so its rows say no. The admission grants on the
// other plane without a failover, and the first choice never sees the
// request.
func TestSaturatedFirstChoiceNotTried(t *testing.T) {
	r := testRouter(t, 2, func(c *Config) { c.Policy = PolicyHash })
	var buf [inlinePlanes]int
	first := r.candidates(&buf, 0, 2)[0]
	saturate(t, r, r.planes[first].name)
	before := planeOffered(r)
	h, err := r.Connect(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if h.Plane() == r.planes[first].name {
		t.Fatalf("granted on the saturated first choice %q", h.Plane())
	}
	s := r.Stats()
	if s.Failovers != 0 {
		t.Errorf("Failovers = %d, want 0: the saturated plane was not to be tried", s.Failovers)
	}
	if after := planeOffered(r); after[first] != before[first] {
		t.Errorf("first choice offered %d → %d requests, want no change", before[first], after[first])
	}
}

// TestEverySaturatedPlaneStillTried: with every plane's rows saying no, the
// walk tries every plane in policy order, as it would with no view at all.
func TestEverySaturatedPlaneStillTried(t *testing.T) {
	r := testRouter(t, 3, func(c *Config) { c.Policy = PolicyHash })
	saturate(t, r, r.PlaneNames()...)
	before := planeOffered(r)
	if _, err := r.Connect(context.Background(), 0, 2); !errors.Is(err, fabric.ErrUnroutable) {
		t.Fatalf("Connect = %v, want an unroutable denial", err)
	}
	after := planeOffered(r)
	for i := range after {
		if after[i] != before[i]+1 {
			t.Errorf("plane %d offered %d → %d, want one more", i, before[i], after[i])
		}
	}
	if s := r.Stats(); s.Failovers != 2 || s.Rejected != 1 {
		t.Errorf("failovers/rejected = %d/%d, want 2/1", s.Failovers, s.Rejected)
	}
}

// TestDueProbeStaysLast: an ejected plane whose probe is due is tried after
// every healthy plane, even the ones whose rows say no, though its own
// rows say yes.
func TestDueProbeStaysLast(t *testing.T) {
	r := testRouter(t, 3, func(c *Config) {
		c.Policy = PolicyRoundRobin
		c.ProbeInterval = time.Nanosecond
	})
	saturate(t, r, "plane1", "plane2")
	r.planes[0].breaker.Store(bOpen)
	r.planes[0].lastProbe.Store(0)
	if !r.planes[0].surf.Routable(0, 2) {
		t.Fatal("the idle probe plane's rows say no")
	}
	h, err := r.Connect(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if h.Plane() != "plane0" {
		t.Fatalf("granted on %q, want the probe plane0", h.Plane())
	}
	if s := r.Stats(); s.Failovers != 2 {
		t.Errorf("Failovers = %d, want 2: both saturated planes before the probe", s.Failovers)
	}
	if ps := planeStats(t, r, "plane0"); ps.Breaker != "closed" {
		t.Errorf("granted probe left breaker %q, want closed", ps.Breaker)
	}
}

// countingSurface counts the Routable calls a plane receives.
type countingSurface struct {
	fabric.Surface
	calls atomic.Int64
}

func (s *countingSurface) Routable(src, dst int) bool {
	s.calls.Add(1)
	return s.Surface.Routable(src, dst)
}

// TestOnePlaneReadsNoView: a one-plane router has nothing to order, so it
// never asks its plane — and the plane, never asked, never publishes.
func TestOnePlaneReadsNoView(t *testing.T) {
	r := testRouter(t, 1, func(c *Config) { c.Planes[0].Fabric.Tree = topology.MustNew(3, 4, 4) })
	cs := &countingSurface{Surface: r.planes[0].surf}
	r.planes[0].surf = cs
	n := r.Nodes()
	for i := 0; i < 1000; i++ {
		if h, err := r.Connect(context.Background(), i%n, (7*i+5)%n); err == nil {
			h.Release()
		}
	}
	if got := cs.calls.Load(); got != 0 {
		t.Fatalf("a one-plane router asked Routable %d times, want 0", got)
	}
}

// TestWidePlanesKeepPolicyOrder: planes with rows wider than one word have
// no view, so the walk is the policy's order: a saturated first choice is
// tried and failed over from.
func TestWidePlanesKeepPolicyOrder(t *testing.T) {
	r := testRouter(t, 2, func(c *Config) {
		c.Policy = PolicyRoundRobin
		for i := range c.Planes {
			c.Planes[i].Fabric.Tree = topology.MustNew(2, 2, 65)
		}
	})
	p0, _ := r.Plane("plane0")
	for i := 0; i < 65; i++ {
		c, err := p0.Admit(context.Background(), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Release()
	}
	h, err := r.Connect(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if s := r.Stats(); h.Plane() != "plane1" || s.Failovers != 1 {
		t.Errorf("granted on %q after %d failovers, want plane1 after 1", h.Plane(), s.Failovers)
	}
}

// TestCancelledConnectCounted: an admission the caller's context ended is
// counted cancelled, so offered = granted + rejected + cancelled holds.
// The epoch it queued for never runs (BatchSize 8, MaxWait 1h), so the
// cancellation is the only way out.
func TestCancelledConnectCounted(t *testing.T) {
	r := testRouter(t, 2, func(c *Config) {
		for i := range c.Planes {
			c.Planes[i].Fabric.BatchSize = 8
			c.Planes[i].Fabric.MaxWait = time.Hour
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Connect(ctx, 0, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("Connect = %v, want context.Canceled", err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Offered != 1 || s.Cancelled != 1 {
		t.Fatalf("offered/granted/rejected/cancelled = %d/%d/%d/%d, want 1/0/0/1",
			s.Offered, s.Granted, s.Rejected, s.Cancelled)
	}
}
