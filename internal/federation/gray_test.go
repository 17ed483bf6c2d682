package federation

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/topology"
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

// TestBreakerStateMachine drives the full circuit with a failed link:
// closed → open on a streak of fault-blocked denials, a failed half-open
// probe re-opens, a granted probe closes, and a probe the plane schedules
// and finds full closes too, with no health sample. The streak rule
// (EjectAfter) is exercised with the health rule parked out of the way,
// and plane 0 is blind, so its denials are what the router hears.
func TestBreakerStateMachine(t *testing.T) {
	r := testRouter(t, 2, func(c *Config) {
		c.Policy = PolicyRoundRobin
		c.EjectAfter = 3
		c.ProbeInterval = time.Hour
		c.OpenBelow = 0.000001 // health rule effectively off
	})
	blind(r, "plane0")
	if ps := planeStats(t, r, "plane0"); ps.Breaker != "closed" || ps.Health != 1 || ps.Opens != 0 {
		t.Fatalf("fresh plane: breaker %q health %v opens %d, want closed/1/0", ps.Breaker, ps.Health, ps.Opens)
	}

	// Fail (0,2)'s only route on plane 0: it denies for a fault.
	p0, _ := r.Plane("plane0")
	if _, _, err := p0.Fail(cutLink); err != nil {
		t.Fatal(err)
	}
	// Round-robin alternates, so 6 admissions land 3 denials on plane 0.
	for i := 0; i < 6; i++ {
		h, err := r.Connect(context.Background(), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	ps := planeStats(t, r, "plane0")
	if ps.Breaker != "open" || ps.Healthy || ps.Opens != 1 {
		t.Fatalf("after streak: breaker %q healthy %v opens %d, want open/false/1", ps.Breaker, ps.Healthy, ps.Opens)
	}
	if ps.Health >= 1 {
		t.Fatalf("denials did not decay health: %v", ps.Health)
	}
	if ps := planeStats(t, r, "plane1"); ps.Breaker != "closed" {
		t.Fatalf("survivor breaker %q, want closed", ps.Breaker)
	}

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

	// Open the probe gate while plane 0 is still faulted: the elected
	// half-open probe fails and the breaker re-opens.
	r.cfg.ProbeInterval = time.Nanosecond
	if _, err := r.Connect(context.Background(), 0, 2); err == nil {
		t.Fatal("admission succeeded with plane 0 faulted and plane 1 saturated")
	}
	if ps := planeStats(t, r, "plane0"); ps.Breaker != "open" || ps.Opens != 2 {
		t.Fatalf("failed probe left breaker %q opens %d, want open/2", ps.Breaker, ps.Opens)
	}

	// Repair plane 0: the next probe grants and the breaker closes.
	if _, err := p0.Repair(cutLink); err != nil {
		t.Fatal(err)
	}
	h, err := r.Connect(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Plane(); got != "plane0" {
		t.Fatalf("probe admission landed on %q, want plane0", got)
	}
	ps = planeStats(t, r, "plane0")
	if ps.Breaker != "closed" || !ps.Healthy {
		t.Fatalf("granted probe left breaker %q healthy %v, want closed/true", ps.Breaker, ps.Healthy)
	}

	// Open it once more, then probe it while it is full, not faulted: the
	// fault is repaired and a circuit holds (0,2)'s only route.
	h.Release()
	r.cfg.ProbeInterval = time.Hour
	if _, _, err := p0.Fail(cutLink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // plane 1 is still saturated by blocker1
		if _, err := r.Connect(context.Background(), 0, 2); err == nil {
			t.Fatal("admission succeeded with plane 0 faulted and plane 1 saturated")
		}
	}
	if ps := planeStats(t, r, "plane0"); ps.Breaker != "open" || ps.Opens != 3 {
		t.Fatalf("second streak: breaker %q opens %d, want open/3", ps.Breaker, ps.Opens)
	}
	if _, err := p0.Repair(cutLink); err != nil {
		t.Fatal(err)
	}
	blocker0, err := p0.Admit(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer blocker0.Release()
	before := planeStats(t, r, "plane0").Health
	r.cfg.ProbeInterval = time.Nanosecond
	if _, err := r.Connect(context.Background(), 0, 2); err == nil {
		t.Fatal("admission succeeded with both planes saturated")
	}
	ps = planeStats(t, r, "plane0")
	if ps.Breaker != "closed" || ps.Opens != 3 || ps.Health != before {
		t.Fatalf("full probe: breaker %q opens %d health %v, want closed/3/%v (no sample)", ps.Breaker, ps.Opens, ps.Health, before)
	}
}

// TestHealthScoreOpensBreaker pins the adaptive rule the streak cannot
// express: with EjectAfter out of reach, enough score decay alone
// (health < OpenBelow) from fault-blocked denials of the blind plane 0
// opens the breaker.
func TestHealthScoreOpensBreaker(t *testing.T) {
	r := testRouter(t, 2, func(c *Config) {
		c.Policy = PolicyRoundRobin
		c.EjectAfter = 100 // streak rule out of reach
		c.ProbeInterval = time.Hour
		c.HealthAlpha = 0.5
		c.OpenBelow = 0.3 // 1 → 0.5 → 0.25 < 0.3 on the second denial
	})
	blind(r, "plane0")
	p0, _ := r.Plane("plane0")
	if _, _, err := p0.Fail(cutLink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h, err := r.Connect(context.Background(), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	ps := planeStats(t, r, "plane0")
	if ps.Breaker != "open" {
		t.Fatalf("health %v below OpenBelow but breaker %q", ps.Health, ps.Breaker)
	}
	if ps.Health > 0.3 {
		t.Fatalf("health %v, want < 0.3 after two denials at alpha 0.5", ps.Health)
	}
	if _, err := p0.Repair(cutLink); err != nil {
		t.Fatal(err)
	}
}

// TestContentionNeverOpensBreaker: a healthy plane that is merely full
// denies 10 × EjectAfter admissions in a row and stays closed at health 1
// — contention is not a health sample, whatever the streak rule says.
func TestContentionNeverOpensBreaker(t *testing.T) {
	const ejectAfter = 3
	r := testRouter(t, 1, func(c *Config) { c.EjectAfter = ejectAfter })
	p0, _ := r.Plane("plane0")
	blocker, err := p0.Admit(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Release()
	for i := 0; i < 10*ejectAfter; i++ {
		var ue *fabric.UnroutableError
		if _, err := r.Connect(context.Background(), 0, 2); !errors.As(err, &ue) || ue.FaultBlocked {
			t.Fatalf("admission %d on the saturated plane: %v, want a contention denial", i, err)
		}
	}
	ps := planeStats(t, r, "plane0")
	if ps.Breaker != "closed" || !ps.Healthy || ps.Health != 1 || ps.Opens != 0 {
		t.Fatalf("after %d contention denials: breaker %q healthy %v health %v opens %d, want closed/true/1/0",
			10*ejectAfter, ps.Breaker, ps.Healthy, ps.Health, ps.Opens)
	}
}

// deadPlane fails every top-level switch of the named plane through Fail —
// not KillPlane, so the router learns it only from the plane's denials.
func deadPlane(t *testing.T, r *Router, name string) {
	t.Helper()
	surf, _ := r.Plane(name)
	tree := surf.Tree()
	var fs faults.FaultSet
	for sw := 0; sw < tree.SwitchesAt(tree.Levels()-1); sw++ {
		fs.Switches = append(fs.Switches, faults.SwitchFault{Level: tree.Levels() - 1, Switch: sw})
	}
	if _, _, err := surf.Fail(&fs); err != nil {
		t.Fatal(err)
	}
}

// TestFaultDeadPlaneRanksLastAndOpens: a plane whose top-level switches
// all failed denies every cross-subtree request for a fault. Least-loaded
// ranks it behind loaded planes that lost nothing, and under round-robin
// its breaker opens on exactly its EjectAfter-th denial (blind, so that the
// router tries it where round-robin puts it).
func TestFaultDeadPlaneRanksLastAndOpens(t *testing.T) {
	planes := func(c *Config) {
		for i := range c.Planes {
			c.Planes[i].Fabric.Tree = topology.MustNew(2, 4, 4)
		}
	}
	ll := testRouter(t, 3, func(c *Config) { planes(c); c.Policy = PolicyLeastLoaded })
	deadPlane(t, ll, "plane0")
	for _, name := range []string{"plane1", "plane2"} {
		surf, _ := ll.Plane(name)
		for src := 0; src < 4; src++ { // four cross-subtree circuits each
			c, err := surf.Admit(context.Background(), src, 15-src)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Release()
		}
	}
	var buf [inlinePlanes]int
	if order := ll.candidates(&buf, 0, 15); order[len(order)-1] != 0 {
		t.Fatalf("least-loaded order %v, want the fault-dead plane 0 last", order)
	}

	const ejectAfter = 3
	rr := testRouter(t, 2, func(c *Config) {
		planes(c)
		c.Policy = PolicyRoundRobin
		c.EjectAfter = ejectAfter
		c.ProbeInterval = time.Hour
	})
	blind(rr, "plane0")
	deadPlane(t, rr, "plane0")
	// Round-robin starts every other admission on plane 0, which denies
	// and fails over to plane 1.
	for denials := 1; denials <= ejectAfter; denials++ {
		for i := 0; i < 2; i++ {
			h, err := rr.Connect(context.Background(), 0, 15)
			if err != nil {
				t.Fatal(err)
			}
			if h.Plane() != "plane1" {
				t.Fatalf("granted on %q, want plane1", h.Plane())
			}
			h.Release()
		}
		ps := planeStats(t, rr, "plane0")
		if open := ps.Breaker == "open"; open != (denials == ejectAfter) || ps.Opens != uint64(denials/ejectAfter) {
			t.Fatalf("after %d denials: breaker %q opens %d, want it open on the %dth", denials, ps.Breaker, ps.Opens, ejectAfter)
		}
	}
}

// TestAllOpenFallback reaches the total-outage safety net: with every
// breaker open and no probe due, every plane is a candidate again, so an
// admission a plane can route still grants.
func TestAllOpenFallback(t *testing.T) {
	r := testRouter(t, 2, func(c *Config) {
		for i := range c.Planes {
			c.Planes[i].Fabric.Tree = topology.MustNew(2, 4, 4)
		}
		c.EjectAfter = 1
		c.ProbeInterval = time.Hour
	})
	// On each plane, level-0 switch 0 loses all four uplinks: a pair from
	// its nodes to another switch is blocked by faults.
	var fs faults.FaultSet
	for port := 0; port < 4; port++ {
		fs.Links = append(fs.Links, faults.LinkFault{Level: 0, Switch: 0, Port: port})
	}
	for _, name := range r.PlaneNames() {
		surf, _ := r.Plane(name)
		if _, _, err := surf.Fail(&fs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Connect(context.Background(), 0, 15); err == nil {
		t.Fatal("a pair blocked on every plane was granted")
	}
	for _, ps := range r.Stats().Planes {
		if ps.Breaker != "open" {
			t.Fatalf("plane %s breaker %q after its fault-blocked denial, want open", ps.Name, ps.Breaker)
		}
	}
	h, err := r.Connect(context.Background(), 4, 15)
	if err != nil {
		t.Fatalf("routable pair with every breaker open and no probe due: %v", err)
	}
	h.Release()
}

// TestDegradedPlaneMarksSlowGrants injects a DegradedPlane process and
// checks the latency budget demotes its grants to half-credit health
// samples while the plane stays in service.
func TestDegradedPlaneMarksSlowGrants(t *testing.T) {
	r := testRouter(t, 1, func(c *Config) {
		c.HealthAlpha = 0.5
		c.LatencyBudget = time.Millisecond
	})
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
	if ps.Breaker != "closed" || !ps.Healthy {
		t.Fatalf("slow-but-alive plane: breaker %q healthy %v, want closed/true", ps.Breaker, ps.Healthy)
	}
	// One slow grant at alpha 0.5: health 1 → 0.75.
	if ps.Health >= 1 || ps.Health < 0.5 {
		t.Fatalf("health after one slow grant = %v, want 0.75", ps.Health)
	}

	// Clearing the process restores fast grants; health recovers.
	if err := r.ClearDegraded("plane0"); err != nil {
		t.Fatal(err)
	}
	if r.Degraded("plane0") != nil {
		t.Fatal("process survived ClearDegraded")
	}
	low := ps.Health
	for i := 0; i < 4; i++ {
		h, err := r.Connect(context.Background(), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	ps = planeStats(t, r, "plane0")
	if ps.Degraded || ps.Health <= low {
		t.Fatalf("health did not recover after ClearDegraded: %v → %v", low, ps.Health)
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

// TestRepairPlaneResetsGrayState checks RepairPlane's postcondition:
// degraded process cleared, health pristine, breaker closed.
func TestRepairPlaneResetsGrayState(t *testing.T) {
	r := testRouter(t, 2, func(c *Config) {
		c.ProbeInterval = time.Hour
	})
	if err := r.SetDegraded("plane0", faults.DegradedPlane{DutyCycle: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.KillPlane("plane0"); err != nil {
		t.Fatal(err)
	}
	ps := planeStats(t, r, "plane0")
	if ps.Breaker != "open" || !ps.Degraded {
		t.Fatalf("killed degraded plane: %+v", ps)
	}
	if err := r.RepairPlane("plane0"); err != nil {
		t.Fatal(err)
	}
	ps = planeStats(t, r, "plane0")
	if ps.Breaker != "closed" || ps.Health != 1 || ps.Degraded || !ps.Healthy {
		t.Fatalf("RepairPlane left gray state: %+v", ps)
	}
}

// TestFailoverBudgetExhaustion bounds cross-plane retries: with a
// one-token budget the first failover succeeds and the second admission
// stops at its first denial instead of fanning out. The saturated first
// choice is blind, so both admissions try it first.
func TestFailoverBudgetExhaustion(t *testing.T) {
	r := testRouter(t, 2, func(c *Config) {
		c.Policy = PolicyHash // fixed (src,dst) → fixed first-choice plane
		c.EjectAfter = 100    // keep the denying plane in candidates
		c.ProbeInterval = time.Hour
		c.FailoverBudget = fabric.Budget{Rate: 0.0001, Burst: 1}
	})
	// Learn the hash policy's first choice for (0,2), then saturate it.
	probe, err := r.Connect(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	first := probe.Plane()
	probe.Release()
	blind(r, first)
	pf, _ := r.Plane(first)
	blocker, err := pf.Admit(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Release()

	// Failover 1: pays the only token, lands on the other plane.
	h, err := r.Connect(context.Background(), 0, 2)
	if err != nil {
		t.Fatalf("budgeted failover failed: %v", err)
	}
	defer h.Release()
	if h.Plane() == first {
		t.Fatalf("failover landed on the saturated plane %q", first)
	}
	if got := r.Stats().FailoverBudgetExhausted; got != 0 {
		t.Fatalf("exhausted after first failover: %d", got)
	}

	// Failover 2: the bucket is empty — the admission ends at the first
	// denial rather than trying the healthy plane.
	if _, err := r.Connect(context.Background(), 0, 2); err == nil {
		t.Fatal("admission succeeded past an exhausted failover budget")
	}
	s := r.Stats()
	if s.FailoverBudgetExhausted != 1 {
		t.Fatalf("FailoverBudgetExhausted = %d, want 1", s.FailoverBudgetExhausted)
	}
	// Only the first admission reached a second plane; the cut one did not.
	if s.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1: the budget refused the second", s.Failovers)
	}

	// An unlimited (zero-value) budget is the default contract.
	if r2 := testRouter(t, 2, nil); r2.fbudget.unlimited != true {
		t.Fatal("zero-value FailoverBudget is not unlimited")
	}
}

// TestGrayConfigValidationFederation tables the new Config knobs.
func TestGrayConfigValidationFederation(t *testing.T) {
	for name, mod := range map[string]func(*Config){
		"alpha too big":   func(c *Config) { c.HealthAlpha = 1.5 },
		"alpha negative":  func(c *Config) { c.HealthAlpha = -0.1 },
		"open below 1+":   func(c *Config) { c.OpenBelow = 1 },
		"open below neg":  func(c *Config) { c.OpenBelow = -0.2 },
		"latency budget":  func(c *Config) { c.LatencyBudget = -time.Second },
		"failover budget": func(c *Config) { c.FailoverBudget = fabric.Budget{Rate: -1, Burst: 3} },
		"failover rate":   func(c *Config) { c.FailoverBudget = fabric.Budget{Rate: -1} },
		"probe interval":  func(c *Config) { c.ProbeInterval = -time.Millisecond },
		"plane weight":    func(c *Config) { c.Planes[0].Weight = -1 },
	} {
		cfg := Config{Planes: []PlaneConfig{
			{Fabric: fabric.Config{Tree: topology.MustNew(2, 2, 1), BatchSize: 1}},
		}}
		mod(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Defaults normalize in.
	r := testRouter(t, 1, nil)
	if r.cfg.HealthAlpha != DefaultHealthAlpha || r.cfg.OpenBelow != DefaultOpenBelow {
		t.Errorf("defaults = %v/%v, want %v/%v",
			r.cfg.HealthAlpha, r.cfg.OpenBelow, DefaultHealthAlpha, DefaultOpenBelow)
	}
}
