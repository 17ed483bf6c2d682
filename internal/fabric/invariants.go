package fabric

// The one statement of what a consistent plane is. Everything the paper
// claims of a schedule (no channel held twice, each down-path the mirror of
// its up-path port for port — Theorem 2) and everything the serving layer's
// counters promise is checked here, by one replay and a handful of sums, so
// that tests, the generator that drives the manager against a reference
// fabric, and the cells of E4, E17 and E21 all ask the same question.

import (
	"errors"
	"fmt"

	"repro/internal/linkstate"
)

// CheckInvariants reports the first way the manager is inconsistent, nil if
// it is not. It takes the scheduling lock and retires parked releases
// first, as Stats does. Callers quiesce first: with a Connect in flight the
// counter identities do not hold yet. It checks:
//   - the registry: each handle sits in its own slot, is active on a route
//     of AncestorLevel(src, dst) ports, or repairing with no route and a
//     repair record;
//   - the link state: a fresh one with every failed and quarantined
//     channel masked and every active route replayed by AllocatePath
//     equals the live one, mask included — so no channel is held twice, no
//     route crosses a mask, nothing leaked or came back, and every
//     down-path mirrors its up-path (AllocatePath claims it port for port);
//   - the gauges: LiveOccupancy = OccupiedCount = 2 · Σ active route
//     lengths, and Unavailable = OccupiedCount + FailedCount;
//   - the published view, when it is on, equals the rows word for word;
//   - the counters: Active = active handles = Granted + Repaired −
//     Released − Revoked; PendingRepairs = repairing handles; Revoked =
//     Repaired + RepairFailed + RepairAborted + PendingRepairs; Offered =
//     Granted + Rejected + Cancelled + client tickets still queued; the
//     queue's count of client tickets equals the client tickets in it;
//     Epochs = SequentialEpochs + ParallelEpochs; EstablishedRoutes −
//     TornRoutes = active handles holding channels.
func (m *Manager) CheckInvariants() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drainReleasesLocked()
	tree := m.cfg.Tree

	ref := linkstate.New(tree)
	for c := range m.failed {
		ref.FailLink(c.Dir, c.Level, c.Switch, c.Port)
	}
	for c := range m.quar {
		ref.FailLink(c.Dir, c.Level, c.Switch, c.Port)
	}
	var active, repairing, routed, held int64
	for i, h := range m.conns {
		ports, state := h.ports(), h.state.Load()
		var err error
		switch {
		case h.idx != i:
			err = fmt.Errorf("records slot %d", h.idx)
		case state == handleActive && len(ports) != tree.AncestorLevel(h.src, h.dst):
			err = fmt.Errorf("is active on %d ports", len(ports))
		case state == handleActive:
			err = ref.AllocatePath(h.src, h.dst, ports)
		case state != handleRepairing:
			err = errors.New("is dead")
		case len(ports) != 0 || h.repair == nil:
			err = fmt.Errorf("is repairing on route %v", ports)
		}
		if err != nil {
			return fmt.Errorf("fabric: handle %d→%d in slot %d, route %v: %w", h.src, h.dst, i, ports, err)
		}
		if state == handleActive {
			active++
			held += int64(2 * len(ports))
			if len(ports) > 0 {
				routed++
			}
		} else {
			repairing++
		}
	}
	if diff := rowsDiff(ref, m.st); diff != "" {
		return fmt.Errorf("fabric: live link state differs from the replay of every active route: %s", diff)
	}

	occ := int64(m.st.OccupiedCount())
	if gauge := m.st.LiveOccupancy(); gauge != occ || occ != held {
		return fmt.Errorf("fabric: occupancy gauge %d, occupied channels %d, active routes hold %d", gauge, occ, held)
	}
	if u, f := m.st.Unavailable(), int64(m.st.FailedCount()); u != occ+f {
		return fmt.Errorf("fabric: Unavailable %d != occupied %d + masked %d", u, occ, f)
	}
	if v := m.view.Load(); v != nil {
		for h := range v.u {
			u, d := m.st.LevelWords(h)
			for i := range u {
				if vu, vd := v.u[h][i].Load(), v.d[h][i].Load(); vu != u[i] || vd != d[i] {
					return fmt.Errorf("fabric: view of level %d switch %d is %#x/%#x, rows %#x/%#x", h, i, vu, vd, u[i], d[i])
				}
			}
		}
	}

	m.qmu.Lock()
	clients, queued := 0, 0 // client tickets in the queue, and those not cancelled
	for _, t := range m.pending {
		if t.h == nil {
			clients++
			if t.state.Load() == ticketWaiting {
				queued++
			}
		}
	}
	counted, offered := m.clients, m.offered
	m.qmu.Unlock()

	granted, released := m.granted.Load(), m.released.Load()
	revoked, repaired := m.revoked.Load(), m.repaired.Load()
	for _, c := range []struct {
		what        string
		left, right int64
	}{
		{"Active vs active handles", m.active.Load(), active},
		{"Active vs Granted + Repaired − Released − Revoked", active, int64(granted + repaired - released - revoked)},
		{"PendingRepairs vs repairing handles", m.pendingRepairs.Load(), repairing},
		{"Revoked vs Repaired + RepairFailed + RepairAborted + PendingRepairs", int64(revoked),
			int64(repaired+m.repairFailed.Load()+m.repairAborted.Load()) + repairing},
		{"Offered vs Granted + Rejected + Cancelled + queued", int64(offered),
			int64(granted+m.rejected.Load()+m.cancelled.Load()) + int64(queued)},
		{"counted clients vs queued client tickets", int64(counted), int64(clients)},
		{"Epochs vs SequentialEpochs + ParallelEpochs", int64(m.epochs.Load()), int64(m.seqEpochs.Load() + m.parEpochs.Load())},
		{"EstablishedRoutes − TornRoutes vs routed active handles", int64(m.establishedRoutes.Load() - m.tornRoutes.Load()), routed},
	} {
		if c.left != c.right {
			return fmt.Errorf("fabric: %s: %d != %d", c.what, c.left, c.right)
		}
	}
	return nil
}

// rowsDiff names the first channel whose availability or mask differs
// between two states over one tree, "" when none does.
func rowsDiff(want, got *linkstate.State) string {
	tree := want.Tree()
	for h := 0; h < tree.LinkLevels(); h++ {
		for idx := 0; idx < tree.SwitchesAt(h); idx++ {
			for p := 0; p < tree.Parents(); p++ {
				for _, d := range []linkstate.Direction{linkstate.Up, linkstate.Down} {
					wf, gf := want.Available(d, h, idx, p), got.Available(d, h, idx, p)
					wm, gm := want.Failed(d, h, idx, p), got.Failed(d, h, idx, p)
					if wf != gf || wm != gm {
						return fmt.Sprintf("%s channel at level %d switch %d port %d is free=%v failed=%v, want free=%v failed=%v",
							d, h, idx, p, gf, gm, wf, wm)
					}
				}
			}
		}
	}
	return ""
}
