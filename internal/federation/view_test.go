package federation

// Tests of the admission walk that need the probe clock or a queued epoch.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fabric"
	"repro/internal/faults"
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

// TestSecondLookGrantsFreedPlane: a release lands on plane0 while the walk
// is on plane1, so the rows of plane0, full when the walk began and when it
// denied, route the pair by the time every candidate has denied; the second
// look asks plane0 again and it grants. plane1 pays a 1 ms injected latency
// on the fake clock, which holds the walk there while the test releases.
// Without the second look the Connect ends in plane1's denial.
func TestSecondLookGrantsFreedPlane(t *testing.T) {
	clk := clock.NewFake()
	r := testRouter(t, 2, func(c *Config) { c.Policy, c.Clock = PolicyRoundRobin, clk })
	plane0, _ := r.Plane("plane0")
	held, err := plane0.Admit(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	saturate(t, r, "plane1")
	if err := r.SetDegraded("plane1", faults.DegradedPlane{AdmitLatency: faults.Duration(time.Millisecond), DutyCycle: 1}); err != nil {
		t.Fatal(err)
	}
	timers := clk.Pending()
	type verdict struct {
		h   *Handle
		err error
	}
	done := make(chan verdict, 1)
	go func() {
		h, err := r.Connect(context.Background(), 0, 2)
		done <- verdict{h, err}
	}()
	waitUntil(t, "the walk to wait out plane1's latency", func() bool { return clk.Pending() > timers })
	if err := held.Release(); err != nil {
		t.Fatal(err)
	}
	plane0.Stats() // drains the release into plane0's rows
	clk.Advance(time.Millisecond)
	v := <-done
	if v.err != nil {
		t.Fatalf("Connect = %v, want a grant on plane0 from the second look", v.err)
	}
	defer v.h.Release()
	if v.h.Plane() != "plane0" {
		t.Fatalf("granted on %q, want plane0", v.h.Plane())
	}
	if s := r.Stats(); s.Failovers != 2 || s.Granted != 1 {
		t.Errorf("Failovers %d, Granted %d; want 2 (plane1, then plane0 again) and 1", s.Failovers, s.Granted)
	}
	for _, name := range []string{"plane0", "plane1"} {
		if ps := planeStats(t, r, name); ps.HintMisses != 0 || ps.Breaker != "closed" {
			t.Errorf("%s: HintMisses %d, breaker %s; want 0 and closed", name, ps.HintMisses, ps.Breaker)
		}
	}
}

// TestSecondLookOnlyForFullPlanes: the second look asks again only a plane
// that denied for contention. Every plane here is blind, so its rows say
// yes at the second look: a saturated plane is asked twice, a fault-blocked
// or draining one once. A one-candidate walk reads no view and asks its
// plane once.
func TestSecondLookOnlyForFullPlanes(t *testing.T) {
	// admits counts the Admit calls each plane received.
	admits := func(r *Router) (n [2]uint64) {
		for i, p := range r.planes {
			n[i] = p.surf.(*probe).admits.Load()
		}
		return n
	}
	for _, tc := range []struct {
		name   string
		break0 func(t *testing.T, plane0 fabric.Surface)
	}{
		{"fault-blocked", func(t *testing.T, plane0 fabric.Surface) {
			if _, _, err := plane0.Fail(cutLink); err != nil {
				t.Fatal(err)
			}
		}},
		{"draining", func(t *testing.T, plane0 fabric.Surface) {
			if err := plane0.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := testRouter(t, 2, func(c *Config) { c.Policy = PolicyRoundRobin })
			blind(r, "plane0", "plane1")
			saturate(t, r, "plane1")
			plane0, _ := r.Plane("plane0")
			tc.break0(t, plane0)
			before := admits(r)
			if _, err := r.Connect(context.Background(), 0, 2); !errors.As(err, new(*fabric.UnroutableError)) {
				t.Fatalf("Connect = %v, want plane1's contention denial", err)
			}
			if after := admits(r); after[0]-before[0] != 1 || after[1]-before[1] != 2 {
				t.Errorf("asked to admit %d times on plane0 (%s) and %d on the saturated plane1, want 1 and 2",
					after[0]-before[0], tc.name, after[1]-before[1])
			}
			if s := r.Stats(); s.Failovers != 2 {
				t.Errorf("Failovers = %d, want 2", s.Failovers)
			}
		})
	}
	t.Run("one candidate", func(t *testing.T) {
		r := testRouter(t, 1, nil)
		blind(r, "plane0")
		saturate(t, r, "plane0")
		before := admits(r)
		if _, err := r.Connect(context.Background(), 0, 2); !errors.As(err, new(*fabric.UnroutableError)) {
			t.Fatalf("Connect = %v, want the plane's contention denial", err)
		}
		if n, m := r.planes[0].surf.(*probe).routables.Load(), admits(r)[0]-before[0]; n != 0 || m != 1 {
			t.Errorf("the only plane asked Routable %d and Admit %d times, want 0 and 1", n, m)
		}
	})
}
