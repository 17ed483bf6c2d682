package fabric

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// TestGrayChaosFlapDamping is the gray-failure acceptance chaos test
// (ci runs it under -race -count=2): concurrent connect/release churn
// while a seeded set of flaky links flaps through a damping-enabled
// manager. The flap-damping invariant: however the quarantine decides
// to absorb the churn, after healing, RepairAll, and a full drain nothing
// is active, nothing is failed and CheckInvariants holds — the link state
// is exactly all-free minus the quarantined masks. Time is a fake clock
// the test advances: the flapping takes 12 ms of it, well inside the
// quarantine probation, and the drain as long as the clients take.
func TestGrayChaosFlapDamping(t *testing.T) {
	tree := topology.MustNew(3, 4, 2)
	clk := clock.NewFake()
	cfg := Config{
		Tree:         tree,
		BatchSize:    8,
		MaxWait:      500 * time.Microsecond,
		AdmitTimeout: 50 * time.Millisecond,
		Clock:        clk,
		// Aggressive damping so the quarantine actually engages: a few
		// flaps quarantine a channel.
		FlapThreshold: 3,
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu      sync.Mutex
		held    []*Handle
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		workers = 4
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var local []*Handle
			defer func() {
				mu.Lock()
				held = append(held, local...)
				mu.Unlock()
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if len(local) > 6 || (len(local) > 0 && rng.Intn(3) == 0) {
					i := rng.Intn(len(local))
					h := local[i]
					local = append(local[:i], local[i+1:]...)
					_ = h.Release()
					continue
				}
				h, err := m.Connect(context.Background(), rng.Intn(tree.Nodes()), rng.Intn(tree.Nodes()))
				if err == nil {
					local = append(local, h)
				}
			}
		}(int64(w + 1))
	}

	// Flaky churn: each selected link is down half the steps, so it
	// transitions roughly every other step — worst-case flap pressure.
	fl := faults.NewFlapper(faults.FlakyLinks(tree, 0.08, 0.5, 1))
	if len(fl.Procs()) == 0 {
		t.Fatal("flaky generator selected no links")
	}
	for i := 0; i < 300; i++ {
		fail, repair := fl.Step()
		if fail != nil {
			if _, _, err := m.Fail(fail); err != nil {
				t.Fatal(err)
			}
		}
		if repair != nil {
			if _, err := m.Repair(repair); err != nil {
				t.Fatal(err)
			}
		}
		if i%25 == 24 {
			advance(clk, time.Millisecond) // let the clients and the repair loop breathe
		}
	}
	if s := m.Stats(); s.QuarantineEvents == 0 || s.Quarantined == 0 {
		t.Fatalf("damping never quarantined: events=%d quarantined=%d (threshold %v should have tripped)",
			s.QuarantineEvents, s.Quarantined, cfg.FlapThreshold)
	}
	// Heal the processes' final down set; quarantined masks stay.
	if ds := fl.DownSet(); !ds.Empty() {
		if _, err := m.Repair(ds); err != nil {
			t.Fatal(err)
		}
	}

	close(stop)
	pumpUntilDone(clk, &wg)
	for _, h := range held {
		_ = h.Release() // a repairing handle's release aborts its repair
	}
	m.RepairAll()
	clk.Advance(cfg.MaxWait) // the deadline epoch takes the aborted repairs' tickets
	if s := m.Stats(); s.PendingRepairs != 0 || s.QueueDepth != 0 {
		t.Fatalf("after releasing everything: %d repairs pending, queue depth %d", s.PendingRepairs, s.QueueDepth)
	}

	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Active != 0 {
		t.Fatalf("%d connections still active after releasing every handle", s.Active)
	}
	if s.FlapEvents == 0 {
		t.Fatal("no flap events recorded under flaky churn")
	}

	// Every fault is healed, so the only masks left are the quarantine's
	// still in probation; the operator override releases them all.
	if fc := m.FaultCount(); fc != 0 {
		t.Fatalf("%d channels still failed after heal + RepairAll", fc)
	}
	if got := m.ClearQuarantine(); got != s.Quarantined {
		t.Fatalf("ClearQuarantine released %d, want %d", got, s.Quarantined)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if u := m.Unavailable(); u != 0 {
		t.Fatalf("%d channels unavailable after ClearQuarantine", u)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineLifecycle walks one channel through the damper: flaps
// below the threshold leave it alone, the crossing flap quarantines it
// (masked but not failed), repair hands the mask to the quarantine, and
// the probation timer alone returns it to service, at the end of the
// probation and not 1 ns before: a fresh quarantine, one a later flap
// extended, and one that follows a ClearQuarantine, whose predecessor's
// timer must lift nothing. Every read of the mask is Unavailable, which
// settles nothing, so no API call can end a quarantine for the timer.
func TestQuarantineLifecycle(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	cfg, clk := fastRepair(tree)
	// The fake clock stands still between the first flaps, so the score
	// is an exact count and the threshold can be one.
	cfg.FlapThreshold = 3
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	link := &faults.FaultSet{Links: []faults.LinkFault{{Level: 0, Switch: 0, Port: 0, Direction: faults.Up}}}
	flap := func() {
		t.Helper()
		if _, _, err := m.Fail(link); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Repair(link); err != nil {
			t.Fatal(err)
		}
	}
	// endsAt advances the idle manager to d from now: the channel is
	// masked 1 ns before and back in service at d.
	endsAt := func(what string, d time.Duration) {
		t.Helper()
		clk.Advance(d - time.Nanosecond)
		if u := m.Unavailable(); u != 1 {
			t.Fatalf("%s: %d channels unavailable 1 ns before the probation ends, want the quarantined 1", what, u)
		}
		clk.Advance(time.Nanosecond)
		if u := m.Unavailable(); u != 0 {
			t.Fatalf("%s: %d channels unavailable when the probation ends, want 0", what, u)
		}
	}

	flap()
	flap()
	if s := m.Stats(); s.Quarantined != 0 || s.QuarantineEvents != 0 {
		t.Fatalf("quarantined below threshold: %+v", s)
	}
	if s := m.Stats(); s.FlapEvents != 2 {
		t.Fatalf("FlapEvents = %d after 2 flaps, want 2", s.FlapEvents)
	}

	// The third down-transition crosses the threshold mid-Fail: the
	// channel is both failed and quarantined. The paired Repair heals
	// the fault but the quarantine keeps the mask.
	flap()
	s := m.Stats()
	if s.QuarantineEvents != 1 || s.Quarantined != 1 {
		t.Fatalf("threshold crossing: events=%d quarantined=%d, want 1/1", s.QuarantineEvents, s.Quarantined)
	}
	if s.FaultyChannels != 0 {
		t.Fatalf("repaired channel still counted failed: %+v", s)
	}
	if s.DegradedCapacity >= 1 {
		t.Fatalf("quarantine mask not reflected in capacity: %v", s.DegradedCapacity)
	}
	q := m.Quarantined()
	if len(q) != 1 || q[0] != (faults.Channel{Dir: linkstate.Up, Level: 0, Switch: 0, Port: 0}) {
		t.Fatalf("Quarantined() = %v", q)
	}
	endsAt("fresh quarantine", quarantineProbation)
	if s := m.Stats(); s.Quarantined != 0 || s.DegradedCapacity != 1 {
		t.Fatalf("after probation: %d quarantined, capacity %v; want 0, 1.0", s.Quarantined, s.DegradedCapacity)
	}

	// Scores persist: a tenth of a half-life has decayed the score of 3
	// to about 2.8, so one more flap re-quarantines immediately. A flap
	// 50 ms later extends that quarantine and re-arms its timer, so
	// nothing lifts it at its first end and the timer ends it at the new.
	flap()
	clk.Advance(quarantineProbation / 2)
	flap()
	if s := m.Stats(); s.Quarantined != 1 || s.QuarantineEvents != 2 {
		t.Fatalf("extended quarantine: %+v", s)
	}
	endsAt("extended quarantine", quarantineProbation)

	// ClearQuarantine both releases a quarantine and forgets the score,
	// so the next flap is counted from zero again. A re-quarantine 50 ms
	// after the clear outlives the cleared one's timer.
	flap()
	if got := m.ClearQuarantine(); got != 1 {
		t.Fatalf("ClearQuarantine = %d, want 1", got)
	}
	flap()
	if s := m.Stats(); s.Quarantined != 0 {
		t.Fatal("flap after score reset must not quarantine")
	}
	clk.Advance(quarantineProbation / 2)
	flap()
	flap()
	flap()
	if s := m.Stats(); s.Quarantined != 1 || s.QuarantineEvents != 4 {
		t.Fatalf("re-quarantine after the clear: %+v", s)
	}
	clk.Advance(quarantineProbation / 2) // the cleared quarantine's timer fires here
	endsAt("quarantine after a clear", quarantineProbation/2)
}

// TestQuarantineKeepsOneTimer: each flap of a quarantined channel extends
// its probation by re-arming the one timer the quarantine keeps, so k flaps
// leave at most one more timer armed on the clock, not k stale ones; the
// quarantine still ends at the last flap's end, and ClearQuarantine stops
// the timer.
func TestQuarantineKeepsOneTimer(t *testing.T) {
	cfg, clk := fastRepair(topology.MustNew(2, 4, 4))
	cfg.FlapThreshold = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	link := &faults.FaultSet{Links: []faults.LinkFault{{Level: 0, Switch: 0, Port: 0, Direction: faults.Up}}}
	flap := func() {
		t.Helper()
		if _, _, err := m.Fail(link); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Repair(link); err != nil {
			t.Fatal(err)
		}
	}
	timers := clk.Pending()
	const k = 20
	for i := 0; i < k; i++ {
		flap()
		clk.Advance(time.Millisecond)
	}
	if got := clk.Pending() - timers; got > 1 {
		t.Fatalf("%d flaps of one channel left %d more timers armed, want at most 1", k, got)
	}
	if s := m.Stats(); s.Quarantined != 1 || s.QuarantineEvents != 1 {
		t.Fatalf("after %d flaps: %d quarantined, %d quarantine events; want 1 and 1", k, s.Quarantined, s.QuarantineEvents)
	}
	clk.Advance(quarantineProbation - time.Millisecond - time.Nanosecond) // the last flap was 1 ms ago
	if u := m.Unavailable(); u != 1 {
		t.Fatalf("%d channels unavailable 1 ns before the last flap's probation ends, want 1", u)
	}
	clk.Advance(time.Nanosecond)
	if u := m.Unavailable(); u != 0 || clk.Pending() != timers {
		t.Fatalf("at the end: %d unavailable, %d timers armed; want 0 and %d", u, clk.Pending(), timers)
	}
	flap()
	if m.ClearQuarantine() != 1 || clk.Pending() != timers {
		t.Fatalf("ClearQuarantine left %d timers armed, want %d", clk.Pending(), timers)
	}
}

// TestRepairRetriesBoundAttempts isolates a source switch so repairs can
// only fail: each revocation gets exactly RepairRetries scheduling
// attempts, the first in the next epoch and each later one a doubling
// backoff after the one before — 2, 4, … 128 ms, so the last comes
// fullBackoff after the first — each at its due instant and not 1 ns
// before, and then its terminal verdict: the per-revocation bound that
// keeps retries from storming.
func TestRepairRetriesBoundAttempts(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	cfg, clk := fastRepair(tree)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	var handles []*Handle
	for i := 0; i < 3; i++ {
		h, err := m.Connect(context.Background(), i, tree.Nodes()-1)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	revoked := isolate(t, m)
	if revoked != 3 {
		t.Fatalf("isolating revoked %d, want 3", revoked)
	}
	start := clk.Now()
	due := time.Duration(0) // of attempt k, after the first
	for k := 1; k <= RepairRetries; k++ {
		if k > 1 {
			due += 2 * time.Millisecond << (k - 2)
			clk.Advance(due - 1 - clk.Now().Sub(start))
			if s := m.Stats(); s.RepairAttempts != uint64(revoked*(k-1)) || s.RepairFailed != 0 {
				t.Fatalf("1 ns before attempt %d is due: %d attempts, %d failed; want %d, 0", k, s.RepairAttempts, s.RepairFailed, revoked*(k-1))
			}
		}
		clk.Advance(due - clk.Now().Sub(start))
		if s := m.Stats(); s.RepairAttempts != uint64(revoked*k) {
			t.Fatalf("attempt %d, due %v after the first: %d attempts, want %d", k, due, s.RepairAttempts, revoked*k)
		}
	}
	if due != fullBackoff {
		t.Fatalf("the last attempt came %v after the first, want %v", due, fullBackoff)
	}
	if s := m.Stats(); s.RepairFailed != uint64(revoked) || s.PendingRepairs != 0 {
		t.Fatalf("after the last attempt: %d failed, %d pending; want %d, 0", s.RepairFailed, s.PendingRepairs, revoked)
	}
	for _, h := range handles {
		_ = h.Release()
	}
}

// TestGrayConfigValidation tables the Config combinations the gray
// fields accept and reject, and the defaults New normalizes into.
func TestGrayConfigValidation(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	mk := func(mut func(*Config)) (Config, error) {
		cfg := Config{Tree: tree}
		mut(&cfg)
		m, err := New(cfg)
		if err != nil {
			return Config{}, err
		}
		got := m.cfg
		m.Close(context.Background())
		return got, nil
	}

	for name, mut := range map[string]func(*Config){
		"negative threshold":     func(c *Config) { c.FlapThreshold = -1 },
		"negative max wait":      func(c *Config) { c.MaxWait = -time.Second },
		"negative admit timeout": func(c *Config) { c.AdmitTimeout = -time.Second },
	} {
		if _, err := mk(mut); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	got, err := mk(func(c *Config) {})
	if err != nil {
		t.Fatal(err)
	}
	if got.FlapThreshold != 0 {
		t.Errorf("damping must default off, got threshold %v", got.FlapThreshold)
	}
}
