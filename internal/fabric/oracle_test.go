package fabric

// The reference fabric: what a Manager does, written the obvious way. One
// mutex; its own link state, rebuilt after every mask change; the same
// registry engine, one pass of it over the live requests in queue order
// per epoch, a no-rollback engine's retained partial routes released after
// it; synchronous release; Fail masking channels and dropping the
// connections that cross them; flap damping without decay. No pool, ring,
// timer, view or repair loop. Connections are keyed by the manager's handle
// for the same connection, which is read only to adopt its route (hold).

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/linkstate"
	"repro/internal/sched"
	"repro/internal/topology"
)

type refFabric struct {
	mu           sync.Mutex
	tree         *topology.Tree
	eng          sched.Engine
	st           *linkstate.State
	conns        map[*Handle]refConn
	failed, quar map[faults.Channel]bool
	flaps        map[faults.Channel]int
	damp         int  // down-transitions that quarantine a channel; 0: never
	closed       bool // refuses faults, as a closed manager does
}

type refConn struct {
	src, dst int
	ports    []int
}

func newRefFabric(tree *topology.Tree, spec string, damp int) *refFabric {
	return &refFabric{tree: tree, eng: sched.MustParse(spec), st: linkstate.New(tree), conns: map[*Handle]refConn{},
		failed: map[faults.Channel]bool{}, quar: map[faults.Channel]bool{}, flaps: map[faults.Channel]int{}, damp: damp}
}

// freshState is a link state with every masked channel failed and nothing
// held.
func (r *refFabric) freshState() *linkstate.State {
	st := linkstate.New(r.tree)
	for _, set := range []map[faults.Channel]bool{r.failed, r.quar} {
		for c := range set {
			st.FailLink(c.Dir, c.Level, c.Switch, c.Port)
		}
	}
	return st
}

// rebuild recomputes the link state from the mask and the held routes.
func (r *refFabric) rebuild() error {
	r.st = r.freshState()
	for _, c := range r.conns {
		if err := r.st.AllocatePath(c.src, c.dst, c.ports); err != nil {
			return fmt.Errorf("reference: %d→%d %v: %v", c.src, c.dst, c.ports, err)
		}
	}
	return nil
}

// epoch schedules the live requests as one pass, holds grant i under
// keys[i], and returns the outcomes; a denial's Ports are cleared, since a
// rejected request holds nothing.
func (r *refFabric) epoch(reqs []core.Request, keys []*Handle) []core.Outcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	outs := r.eng.Schedule(r.st, reqs).Outcomes
	for i, o := range outs {
		switch {
		case !o.Granted:
			core.ReleaseRoute(r.st, o.Src, o.Dst, o.Ports, nil)
			outs[i].Ports = nil
		case keys[i] != nil:
			r.conns[keys[i]] = refConn{o.Src, o.Dst, o.Ports}
		default: // the manager denied it, which the generator reports
			r.conns[new(Handle)] = refConn{o.Src, o.Dst, o.Ports}
		}
	}
	return outs
}

// blocked is a denial's cause, by definition: Level-wise first-fit denies
// the pair on a plane holding nothing but the mask.
func (r *refFabric) blocked(src, dst int) bool {
	lw := &core.LevelWise{Opts: core.Options{Rollback: true}}
	return !lw.Schedule(r.freshState(), []core.Request{{Src: src, Dst: dst}}).Outcomes[0].Granted
}

// hold adopts a route the reference did not schedule itself: a repair, or
// a grant of an epoch the manager shared with repairs.
func (r *refFabric) hold(h *Handle) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := refConn{h.src, h.dst, h.Ports()}
	if err := r.st.AllocatePath(c.src, c.dst, c.ports); err != nil {
		return fmt.Errorf("reference: adopting %d→%d %v: %v", c.src, c.dst, c.ports, err)
	}
	r.conns[h] = c
	return nil
}

// release returns a held connection's channels; one the reference does not
// hold (dropped by a fault) is a no-op.
func (r *refFabric) release(h *Handle) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.conns[h]
	if !ok {
		return nil
	}
	delete(r.conns, h)
	if err := r.st.ReleasePath(c.src, c.dst, c.ports); err != nil {
		return fmt.Errorf("reference: releasing %d→%d %v: %v", c.src, c.dst, c.ports, err)
	}
	return nil
}

// fail masks the channels not already failed — quarantining any whose
// down-transitions reach damp — and drops every connection whose route
// crosses a channel it newly masked. It returns how many it newly masked
// and the dropped connections. A closed fabric refuses faults.
func (r *refFabric) fail(chans []faults.Channel) (fresh int, dropped map[*Handle]bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	newly, dropped := map[faults.Channel]bool{}, map[*Handle]bool{}
	if r.closed {
		return 0, dropped, nil
	}
	for _, c := range chans {
		if r.failed[c] {
			continue
		}
		if !r.quar[c] { // a quarantined channel is masked already
			newly[c] = true
			fresh++
		}
		if r.flaps[c]++; r.damp > 0 && r.flaps[c] >= r.damp {
			r.quar[c] = true
		}
		r.failed[c] = true
	}
	for h, c := range r.conns {
		var cur topology.RouteCursor
		cur.Start(r.tree, c.src, c.dst)
		cur.Walk(c.ports, func(lvl, sigma, delta, p int) {
			if newly[faults.Channel{Dir: linkstate.Up, Level: lvl, Switch: sigma, Port: p}] ||
				newly[faults.Channel{Dir: linkstate.Down, Level: lvl, Switch: delta, Port: p}] {
				dropped[h] = true
			}
		})
	}
	for h := range dropped {
		delete(r.conns, h)
	}
	return fresh, dropped, r.rebuild()
}

// repair heals the failed channels among chans and returns how many came
// back into service (a quarantined one stays masked).
func (r *refFabric) repair(chans []faults.Channel) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range chans {
		if r.failed[c] {
			delete(r.failed, c)
			if !r.quar[c] {
				n++
			}
		}
	}
	return n, r.rebuild()
}

// failedChannels lists the failed channels in a fixed order.
func (r *refFabric) failedChannels() []faults.Channel {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []faults.Channel
	for c := range r.failed {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// clearQuarantine lifts every quarantine, forgets every flap, and returns
// how many channels came back into service.
func (r *refFabric) clearQuarantine() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for c := range r.quar {
		if !r.failed[c] {
			n++
		}
	}
	clear(r.quar)
	clear(r.flaps)
	return n, r.rebuild()
}
