package fabric

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

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
// is exactly all-free minus the quarantined masks.
func TestGrayChaosFlapDamping(t *testing.T) {
	tree := topology.MustNew(3, 4, 2)
	cfg := Config{
		Tree:          tree,
		BatchSize:     8,
		MaxWait:       500 * time.Microsecond,
		AdmitTimeout:  50 * time.Millisecond,
		RepairBackoff: 500 * time.Microsecond,
		RepairRetries: 3,
		// Aggressive damping so the quarantine actually engages: a few
		// flaps quarantine a channel.
		FlapThreshold: 3,
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A long probation keeps the quarantine masked through the final
	// identity check below.
	m.halfLife, m.probation = time.Minute, time.Hour

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
			time.Sleep(time.Millisecond) // let the repair loop breathe
		}
	}
	// Heal the processes' final down set; quarantined masks stay.
	if ds := fl.DownSet(); !ds.Empty() {
		if _, err := m.Repair(ds); err != nil {
			t.Fatal(err)
		}
	}

	close(stop)
	wg.Wait()
	for _, h := range held {
		_ = h.Release()
	}
	m.RepairAll()
	waitFor(t, func() bool {
		s := m.Stats()
		return s.PendingRepairs == 0 && s.QueueDepth == 0
	})

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
	if s.QuarantineEvents == 0 || s.Quarantined == 0 {
		t.Fatalf("damping never quarantined: events=%d quarantined=%d (threshold %v should have tripped)",
			s.QuarantineEvents, s.Quarantined, cfg.FlapThreshold)
	}

	// Every fault is healed, so the only masks left are the quarantine's
	// (probation is an hour out); the operator override releases them all.
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
// probation expiry returns it to service on its own.
func TestQuarantineLifecycle(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	cfg := fastRepair(tree)
	// 2.5, not 3: the score decays (fractionally) between flaps, so an
	// exact integer threshold would need the clock to stand still.
	cfg.FlapThreshold = 2.5
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.halfLife, m.probation = time.Minute, 30*time.Millisecond // no meaningful decay within the test
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

	// Probation passes without another flap: the channel returns to
	// service by itself (timer continuation; no API call required).
	waitFor(t, func() bool { return m.Stats().Quarantined == 0 })
	if s := m.Stats(); s.DegradedCapacity != 1 {
		t.Fatalf("capacity after probation: %v, want 1.0", s.DegradedCapacity)
	}

	// Scores persist (long half-life): one more flap re-quarantines
	// immediately, and ClearQuarantine both releases it and forgets the
	// score, so the next flap is counted from zero again.
	flap()
	if s := m.Stats(); s.Quarantined != 1 || s.QuarantineEvents != 2 {
		t.Fatalf("re-quarantine: %+v", s)
	}
	if got := m.ClearQuarantine(); got != 1 {
		t.Fatalf("ClearQuarantine = %d, want 1", got)
	}
	flap()
	if s := m.Stats(); s.Quarantined != 0 {
		t.Fatal("flap after score reset must not quarantine")
	}
}

// TestRepairRetriesBoundAttempts isolates a source switch so repairs can
// only fail: each revocation gets exactly RepairRetries scheduling
// attempts, backoff between them, and then its terminal verdict — the
// per-revocation bound that keeps retries from storming.
func TestRepairRetriesBoundAttempts(t *testing.T) {
	tree := topology.MustNew(2, 4, 4)
	cfg := fastRepair(tree)
	cfg.RepairBackoff = 200 * time.Microsecond
	cfg.RepairRetries = 4
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
	waitFor(t, func() bool { return m.Stats().RepairFailed == uint64(revoked) })
	if s := m.Stats(); s.RepairAttempts != uint64(revoked*cfg.RepairRetries) {
		t.Fatalf("RepairAttempts = %d, want %d revocations × %d retries", s.RepairAttempts, revoked, cfg.RepairRetries)
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
		"negative threshold":      func(c *Config) { c.FlapThreshold = -1 },
		"negative max wait":       func(c *Config) { c.MaxWait = -time.Second },
		"negative admit timeout":  func(c *Config) { c.AdmitTimeout = -time.Second },
		"negative repair backoff": func(c *Config) { c.RepairBackoff = -time.Millisecond },
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
