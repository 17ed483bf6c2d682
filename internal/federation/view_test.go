package federation

// Tests of the admission walk that need the probe clock or a queued epoch.

import (
	"context"
	"errors"
	"testing"
	"time"
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

// TestDueProbeStaysLast: an ejected plane whose probe is due is tried after
// every healthy plane, even the ones whose rows say no, though its own
// rows say yes.
func TestDueProbeStaysLast(t *testing.T) {
	r := testRouter(t, 3, func(c *Config) { c.Policy = PolicyRoundRobin })
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
