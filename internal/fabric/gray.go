package fabric

// Gray-failure hardening for the repair loop: flap damping with
// quarantine. A link that merely fails once is handled fine by faults.go —
// mask, revoke, repair. A link that *flaps* re-runs that whole cycle on
// every transition, and with enough flapping links the revoke/re-admit
// churn grows without bound. Flap damping (BGP-style) bounds it: each
// down-transition of a channel adds one to a per-channel score that decays
// exponentially with half-life flapHalfLife. A score crossing
// Config.FlapThreshold quarantines the channel — it stays masked
// (scheduled around, exactly like a failed channel) until a probation
// window of quarantineProbation passes with no further flap, so one noisy
// link stops generating churn after a bounded number of revocations. The
// probation timer is the only thing that ends a quarantine (besides the
// operator's ClearQuarantine); whichever set releases a channel last,
// failed or quarantined, returns it to service through liftLocked.
// Opt-in: FlapThreshold 0 disables damping entirely and the manager
// behaves bit-identically to the clean-fault model. Retries need no limit
// of their own: RepairRetries bounds the attempts per revocation.

import (
	"math"
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// The flap-damping clock: a flap score halves every flapHalfLife, and a
// quarantined channel stays masked for quarantineProbation after its last
// flap, both on Config.Clock.
const (
	flapHalfLife        = time.Second
	quarantineProbation = 100 * time.Millisecond
)

// quarantine is one quarantined channel's probation: it ends at until,
// when timer fires.
type quarantine struct {
	until time.Time
	timer clock.Timer
}

// flapScore is one channel's decayed flap counter.
type flapScore struct {
	score float64
	last  time.Time
}

// noteFlapLocked records a down-transition of channel c at time now:
// decay the score, add one, and quarantine (or extend an existing
// quarantine of) the channel once the score crosses the threshold.
// Caller holds m.mu; damping must be enabled.
func (m *Manager) noteFlapLocked(c faults.Channel, now time.Time) {
	m.flapEvents.Add(1)
	fs := m.flap[c]
	if fs == nil {
		fs = &flapScore{}
		m.flap[c] = fs
	} else if dt := now.Sub(fs.last); dt > 0 {
		fs.score *= math.Exp2(-float64(dt) / float64(flapHalfLife))
	}
	fs.score++
	fs.last = now
	if fs.score < m.cfg.FlapThreshold {
		return
	}
	until := now.Add(quarantineProbation)
	// The probation timer is the only way a quarantine ends: the flap that
	// starts one arms it, and each flap that extends it re-arms it, due at
	// the new end, so a channel keeps one timer however often it flaps.
	if q := m.quar[c]; q != nil {
		q.until = until
		q.timer.Reset(quarantineProbation)
		return
	}
	m.quarantineEvents.Add(1)
	q := &quarantine{until: until}
	m.quar[c] = q
	q.timer = m.cfg.Clock.AfterFunc(quarantineProbation, func() { m.endProbation(c, q) })
}

// dampingLocked reports whether flap damping is enabled.
func (m *Manager) dampingLocked() bool { return m.cfg.FlapThreshold > 0 }

// endProbation is the probation timer's continuation: it lifts c's
// quarantine if q is still it and the clock has reached its end — a flap
// may have extended it, or ClearQuarantine ended it, after the timer fired
// and before the continuation took mu.
func (m *Manager) endProbation(c faults.Channel, q *quarantine) {
	m.mu.Lock()
	lifted := 0
	if m.quar[c] == q && !m.cfg.Clock.Now().Before(q.until) {
		delete(m.quar, c)
		lifted = m.liftLocked(c)
	}
	m.mu.Unlock()
	if lifted > 0 {
		m.poke() // freed capacity: let the next epoch use it
	}
}

// liftLocked is the one rule by which a masked channel returns to
// service: the caller has dropped each of chans from m.failed or m.quar,
// and a channel whose mask the other set still holds stays masked. It
// republishes the view when any channel came back and returns how many
// did; the caller pokes once it lets go of m.mu, so the next epoch can use
// the capacity. Caller holds m.mu.
func (m *Manager) liftLocked(chans ...faults.Channel) int {
	lifted := 0
	for _, c := range chans {
		if _, bad := m.failed[c]; bad {
			continue
		}
		if _, q := m.quar[c]; q {
			continue
		}
		m.st.RepairLink(c.Dir, c.Level, c.Switch, c.Port)
		lifted++
	}
	if lifted > 0 {
		m.publishAllLocked()
	}
	return lifted
}

// channelsOf lists a channel set's members, in no particular order.
func channelsOf[V any](set map[faults.Channel]V) []faults.Channel {
	out := make([]faults.Channel, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	return out
}

// Quarantined returns the currently quarantined channels in
// faults.Channel order.
func (m *Manager) Quarantined() []faults.Channel {
	m.mu.Lock()
	out := channelsOf(m.quar)
	m.mu.Unlock()
	slices.SortFunc(out, faults.Channel.Compare)
	return out
}

// ClearQuarantine lifts every quarantine immediately and resets the
// flap scores — the operator's "I fixed the cable, trust it again"
// override (ftserve's whole-plane repair verb calls it). Channels that
// are also failed outright stay masked until repaired. Returns the
// number of channels returned to service.
func (m *Manager) ClearQuarantine() int {
	m.mu.Lock()
	quar := channelsOf(m.quar)
	for _, q := range m.quar {
		q.timer.Stop()
	}
	clear(m.quar)
	clear(m.flap)
	lifted := m.liftLocked(quar...)
	m.mu.Unlock()
	if lifted > 0 {
		m.poke()
	}
	return lifted
}

// repairOnHeldTrunkLocked reports whether a freshly repaired route
// landed on a held trunk: some level of its climb has, at the parent
// switches the route's up-port selects, at least one *other* in-service
// channel already carrying a held circuit. This is exactly the quantity
// the ReuseCost score (core.Scorer) rewards — (w − free) at the
// two parent rows — so the repaired_on_held_trunk counter is the
// observable proof that reuse-cost-aware repair placement steers
// repairs toward standing configuration. The route's own channels at
// each parent level are excluded, as are failed/quarantined (masked)
// channels, which are dead rather than held. Caller holds m.mu.
func (m *Manager) repairOnHeldTrunkLocked(src, dst int, ports []int) bool {
	tree := m.cfg.Tree
	if len(ports) == 0 {
		return false
	}
	held := false
	var cur topology.RouteCursor
	cur.Start(tree, src, dst)
	cur.Walk(ports, func(h, sigma, delta, port int) {
		if held || h+1 >= tree.LinkLevels() {
			return
		}
		var self uint64
		if h+1 < len(ports) {
			self = 1 << uint(ports[h+1]) // the route's own channels at the parent level
		}
		up := m.st.Held(linkstate.Up, h+1, tree.UpParent(h, sigma, port))
		down := m.st.Held(linkstate.Down, h+1, tree.UpParent(h, delta, port))
		held = (up|down)&^self != 0
	})
	return held
}
