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
// link stops generating churn after a bounded number of revocations.
// Opt-in: FlapThreshold 0 disables damping entirely and the manager
// behaves bit-identically to the clean-fault model. Retries need no limit
// of their own: RepairRetries bounds the attempts per revocation.

import (
	"math"
	"sort"
	"time"

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
	if _, already := m.quar[c]; !already {
		m.quarantineEvents.Add(1)
		// Wake shortly after probation expires so the channel returns to
		// service even on an otherwise idle manager (settle points —
		// Stats, Fail, Repair, epoch flushes — also release on time).
		m.cfg.Clock.AfterFunc(quarantineProbation+time.Millisecond, m.settleQuarantine)
	}
	m.quar[c] = until
}

// dampingLocked reports whether flap damping is enabled.
func (m *Manager) dampingLocked() bool { return m.cfg.FlapThreshold > 0 }

// settleQuarantineLocked releases every quarantined channel whose
// probation has expired: if the channel is not also currently failed,
// its mask lifts and the capacity returns to service. Caller holds
// m.mu. Returns the number of channels returned to service.
func (m *Manager) settleQuarantineLocked(now time.Time) int {
	if len(m.quar) == 0 {
		return 0
	}
	released := 0
	for c, until := range m.quar {
		if now.Before(until) {
			continue
		}
		delete(m.quar, c)
		if _, bad := m.failed[c]; bad {
			continue // the mask stays: the channel is still failed outright
		}
		m.st.RepairLink(c.Dir, c.Level, c.Switch, c.Port)
		released++
	}
	if released > 0 {
		m.publishAllLocked()
	}
	return released
}

// settleQuarantine is the probation timer's continuation.
func (m *Manager) settleQuarantine() {
	m.mu.Lock()
	released := m.settleQuarantineLocked(m.cfg.Clock.Now())
	m.mu.Unlock()
	if released > 0 {
		m.poke() // freed capacity: let the next epoch use it
	}
}

// Quarantined returns the currently quarantined channels in
// deterministic order (after releasing any whose probation expired).
func (m *Manager) Quarantined() []faults.Channel {
	m.mu.Lock()
	m.settleQuarantineLocked(m.cfg.Clock.Now())
	out := make([]faults.Channel, 0, len(m.quar))
	for c := range m.quar {
		out = append(out, c)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		if a.Switch != b.Switch {
			return a.Switch < b.Switch
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		return a.Dir < b.Dir
	})
	return out
}

// ClearQuarantine lifts every quarantine immediately and resets the
// flap scores — the operator's "I fixed the cable, trust it again"
// override (ftserve's whole-plane repair verb calls it). Channels that
// are also failed outright stay masked until repaired. Returns the
// number of channels returned to service.
func (m *Manager) ClearQuarantine() int {
	m.mu.Lock()
	released := 0
	for c := range m.quar {
		delete(m.quar, c)
		if _, bad := m.failed[c]; bad {
			continue
		}
		m.st.RepairLink(c.Dir, c.Level, c.Switch, c.Port)
		released++
	}
	for c := range m.flap {
		delete(m.flap, c)
	}
	if released > 0 {
		m.publishAllLocked()
	}
	m.mu.Unlock()
	if released > 0 {
		m.poke()
	}
	return released
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
	w := tree.Parents()
	held := false
	var cur topology.RouteCursor
	cur.Start(tree, src, dst)
	cur.Walk(ports, func(h, sigma, delta, port int) {
		if held || h+1 >= tree.LinkLevels() {
			return
		}
		up := tree.UpParent(h, sigma, port)
		down := tree.UpParent(h, delta, port)
		self := -1
		if h+1 < len(ports) {
			self = ports[h+1] // the route's own channels at the parent level
		}
		urow, drow := m.st.ULink(h+1, up), m.st.DLink(h+1, down)
		for p := 0; p < w; p++ {
			if p == self {
				continue
			}
			if !urow.Get(p) && !m.st.Failed(linkstate.Up, h+1, up, p) {
				held = true
				return
			}
			if !drow.Get(p) && !m.st.Failed(linkstate.Down, h+1, down, p) {
				held = true
				return
			}
		}
	})
	return held
}
