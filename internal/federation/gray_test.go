package federation

import (
	"context"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
)

// planeStats fetches one plane's snapshot by name.
func planeStats(t *testing.T, r *Router, name string) PlaneStats {
	t.Helper()
	for _, ps := range r.Stats().Planes {
		if ps.Name == name {
			return ps
		}
	}
	t.Fatalf("no plane %q in stats", name)
	return PlaneStats{}
}

// cutLink is the only level-0 link out of FT(2,2,1)'s switch 0: failed,
// it leaves (0,2) — whose only route it is — blocked by faults.
var cutLink = &faults.FaultSet{Links: []faults.LinkFault{{Level: 0, Switch: 0, Port: 0}}}

// TestBreakerStateMachine drives the half of the circuit that needs the
// probe clock, from a breaker opened on a failed link: no probe is elected
// 1 ns before probeInterval has passed and one is at probeInterval; a
// failed half-open probe re-opens and restarts the probe clock, a granted
// probe closes, and a probe the plane schedules and finds full closes too,
// with no health sample. (How a closed breaker opens is the router
// generator's.) Plane 0 is blind, so its denials are what the router hears.
func TestBreakerStateMachine(t *testing.T) {
	clk := clock.NewFake()
	r := testRouter(t, 2, func(c *Config) {
		c.Policy = PolicyRoundRobin
		c.Clock = clk
	})
	blind(r, "plane0")
	// Fail (0,2)'s only route on plane 0, so it denies for a fault, and open
	// its breaker.
	p0, _ := r.Plane("plane0")
	if _, _, err := p0.Fail(cutLink); err != nil {
		t.Fatal(err)
	}
	r.planes[0].eject(clk.Now())

	// Saturate plane 1; with probes gated the admission must fail.
	p1, _ := r.Plane("plane1")
	blocker1, err := p1.Admit(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer blocker1.Release()
	if _, err := r.Connect(context.Background(), 0, 2); err == nil {
		t.Fatal("admission succeeded with probes gated, plane 0 faulted and plane 1 saturated")
	}

	// 1 ns before the probe is due no probe is elected; at probeInterval
	// one is, while plane 0 is still faulted: the half-open probe fails and
	// the breaker re-opens.
	clk.Advance(probeInterval - 1)
	if _, err := r.Connect(context.Background(), 0, 2); err == nil {
		t.Fatal("admission succeeded with plane 0 faulted and plane 1 saturated")
	}
	if ps := planeStats(t, r, "plane0"); ps.Breaker != "open" || ps.Opens != 1 {
		t.Fatalf("1 ns before the probe was due: breaker %q opens %d, want open/1 (no probe)", ps.Breaker, ps.Opens)
	}
	clk.Advance(1)
	if _, err := r.Connect(context.Background(), 0, 2); err == nil {
		t.Fatal("admission succeeded with plane 0 faulted and plane 1 saturated")
	}
	if ps := planeStats(t, r, "plane0"); ps.Breaker != "open" || ps.Opens != 2 {
		t.Fatalf("failed probe left breaker %q opens %d, want open/2", ps.Breaker, ps.Opens)
	}

	// Repair plane 0: the probe due one interval after the failed one
	// grants and the breaker closes.
	if _, err := p0.Repair(cutLink); err != nil {
		t.Fatal(err)
	}
	clk.Advance(probeInterval - 1)
	if _, err := r.Connect(context.Background(), 0, 2); err == nil {
		t.Fatal("admission succeeded before the probe clock restarted by the failed probe ran out")
	}
	clk.Advance(1)
	h, err := r.Connect(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Plane(); got != "plane0" {
		t.Fatalf("probe admission landed on %q, want plane0", got)
	}
	if ps := planeStats(t, r, "plane0"); ps.Breaker != "closed" || !ps.Healthy {
		t.Fatalf("granted probe left breaker %q healthy %v, want closed/true", ps.Breaker, ps.Healthy)
	}

	// Open it once more, then probe it while it is full, not faulted: a
	// circuit holds (0,2)'s only route.
	h.Release()
	r.planes[0].eject(clk.Now())
	blocker0, err := p0.Admit(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer blocker0.Release()
	before := planeStats(t, r, "plane0").Health
	clk.Advance(probeInterval)
	if _, err := r.Connect(context.Background(), 0, 2); err == nil {
		t.Fatal("admission succeeded with both planes saturated")
	}
	if ps := planeStats(t, r, "plane0"); ps.Breaker != "closed" || ps.Opens != 3 || ps.Health != before {
		t.Fatalf("full probe: breaker %q opens %d health %v, want closed/3/%v (no sample)", ps.Breaker, ps.Opens, ps.Health, before)
	}
}

// TestKillPlaneTwiceOpensOnce: a KillPlane of a plane whose breaker is
// already open restarts its probe clock but is no transition into open, so
// Opens counts one.
func TestKillPlaneTwiceOpensOnce(t *testing.T) {
	r := testRouter(t, 2, nil)
	for i := 0; i < 2; i++ {
		if err := r.KillPlane("plane0"); err != nil {
			t.Fatal(err)
		}
	}
	if ps := planeStats(t, r, "plane0"); ps.Breaker != "open" || ps.Opens != 1 {
		t.Fatalf("after two kills: breaker %q opens %d, want open/1", ps.Breaker, ps.Opens)
	}
}

// TestDegradedPlaneStaysInService injects a DegradedPlane process: its
// grants are slow but they are grants, so the plane keeps full health and
// a closed breaker, and the stats mark it degraded until it is cleared.
func TestDegradedPlaneStaysInService(t *testing.T) {
	r := testRouter(t, 1, nil)
	if err := r.SetDegraded("plane0", faults.DegradedPlane{
		AdmitLatency: faults.Duration(5 * time.Millisecond),
		DutyCycle:    1, // every admission pays
	}); err != nil {
		t.Fatal(err)
	}
	if dp := r.Degraded("plane0"); dp == nil || dp.Plane != "plane0" {
		t.Fatalf("Degraded() = %+v", dp)
	}

	h, err := r.Connect(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	ps := planeStats(t, r, "plane0")
	if !ps.Degraded {
		t.Fatal("stats do not mark the plane degraded")
	}
	if ps.Breaker != "closed" || !ps.Healthy || ps.Health != 1 {
		t.Fatalf("slow-but-alive plane: breaker %q healthy %v health %v, want closed/true/1",
			ps.Breaker, ps.Healthy, ps.Health)
	}

	if err := r.ClearDegraded("plane0"); err != nil {
		t.Fatal(err)
	}
	if r.Degraded("plane0") != nil {
		t.Fatal("process survived ClearDegraded")
	}
	if ps = planeStats(t, r, "plane0"); ps.Degraded {
		t.Fatal("stats still mark the plane degraded after ClearDegraded")
	}

	// Validation and name resolution.
	if err := r.SetDegraded("plane0", faults.DegradedPlane{DutyCycle: 2}); err == nil {
		t.Error("invalid duty cycle accepted")
	}
	if err := r.SetDegraded("nope", faults.DegradedPlane{DutyCycle: 0.5}); err == nil {
		t.Error("unknown plane accepted")
	}
	if err := r.ClearDegraded("nope"); err == nil {
		t.Error("ClearDegraded(nope) succeeded")
	}
	if r.Degraded("nope") != nil {
		t.Error("Degraded(nope) returned a process")
	}
}

// TestGrayConfigValidationFederation: the router's one time knob, Clock,
// defaults to the wall clock, and a plane with no clock of its own runs on
// the router's.
func TestGrayConfigValidationFederation(t *testing.T) {
	if r := testRouter(t, 1, nil); r.Clock() != clock.Wall {
		t.Errorf("default clock %v, want the wall clock", r.Clock())
	}
	clk, own := clock.NewFake(), clock.NewFake()
	r := testRouter(t, 2, func(c *Config) {
		c.Clock = clk
		c.Planes[1].Fabric.Clock = own
		for i := range c.Planes {
			c.Planes[i].Fabric.BatchSize, c.Planes[i].Fabric.MaxWait = 2, time.Millisecond
		}
	})
	// A plane's clock shows in its MaxWait deadline: the router's clock runs
	// plane 0's partial batch, and only plane 1's own clock runs plane 1's.
	for i, pc := range []*clock.Fake{clk, own} {
		done := make(chan error, 1)
		go func() {
			c, err := r.planes[i].surf.Admit(context.Background(), 0, 2)
			if err == nil {
				c.Release()
			}
			done <- err
		}()
		waitUntil(t, "the admission to queue", func() bool { return r.planes[i].surf.Stats().QueueDepth == 1 })
		for _, other := range []*clock.Fake{clk, own} {
			if other != pc {
				other.Advance(time.Millisecond)
			}
		}
		select {
		case <-done:
			t.Fatalf("plane %d ran its batch on another plane's clock", i)
		default:
		}
		pc.Advance(time.Millisecond)
		if err := <-done; err != nil {
			t.Fatalf("plane %d: %v", i, err)
		}
	}
}
