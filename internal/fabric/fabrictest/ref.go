// Package fabrictest holds the reference fabric: what a fabric.Manager
// does, written the obvious way, for the tests of the fabric and of the
// tiers built on it. One mutex; its own link state, rebuilt after every
// mask change; the same registry engine, one pass of it over the live
// requests in queue order per epoch, a no-rollback engine's retained
// partial routes released after it; synchronous release; Fail masking
// channels and dropping the connections that cross them; flap damping
// without decay. No pool, ring, timer, view or repair loop.
//
// The package does not import internal/fabric, whose own tests import it.
// A connection is held under a comparable key the caller chooses — the
// manager's handle for it, or a federated handle — and its endpoints and
// route are passed in, never read off a handle.
package fabrictest

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

// Ref is the reference fabric. Its exported fields are the model's state,
// for the caller to compare against; change them only through the methods.
type Ref struct {
	mu   sync.Mutex
	Tree *topology.Tree
	eng  sched.Engine
	// St holds the mask and every held route.
	St *linkstate.State
	// Conns are the held connections by key.
	Conns map[any]Conn
	// Failed are the failed channels, Quar the quarantined ones.
	Failed, Quar map[faults.Channel]bool
	flaps        map[faults.Channel]int
	damp         int // down-transitions that quarantine a channel; 0: never
	// Closed refuses faults, as a closed manager does.
	Closed bool
}

// Conn is one held connection.
type Conn struct {
	Src, Dst int
	Ports    []int
}

// New is an empty reference over tree that schedules with the registry
// engine spec; a channel's damp-th down-transition quarantines it, and
// damp 0 turns damping off.
func New(tree *topology.Tree, spec string, damp int) *Ref {
	return &Ref{Tree: tree, eng: sched.MustParse(spec), St: linkstate.New(tree), Conns: map[any]Conn{},
		Failed: map[faults.Channel]bool{}, Quar: map[faults.Channel]bool{}, flaps: map[faults.Channel]int{}, damp: damp}
}

// FreshState is a link state with every masked channel failed and nothing
// held.
func (r *Ref) FreshState() *linkstate.State {
	st := linkstate.New(r.Tree)
	for _, set := range []map[faults.Channel]bool{r.Failed, r.Quar} {
		for c := range set {
			st.FailLink(c.Dir, c.Level, c.Switch, c.Port)
		}
	}
	return st
}

// rebuild recomputes the link state from the mask and the held routes.
func (r *Ref) rebuild() error {
	r.St = r.FreshState()
	for _, c := range r.Conns {
		if err := r.St.AllocatePath(c.Src, c.Dst, c.Ports); err != nil {
			return fmt.Errorf("reference: %d→%d %v: %v", c.Src, c.Dst, c.Ports, err)
		}
	}
	return nil
}

// Epoch schedules the live requests as one pass, holds grant i under
// keys[i] (a nil key: under a fresh one of its own), and returns the
// outcomes; a denial's Ports are cleared, since a rejected request holds
// nothing.
func (r *Ref) Epoch(reqs []core.Request, keys []any) []core.Outcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	outs := r.eng.Schedule(r.St, reqs).Outcomes
	for i, o := range outs {
		switch {
		case !o.Granted:
			core.ReleaseRoute(r.St, o.Src, o.Dst, o.Ports, nil)
			outs[i].Ports = nil
		case keys[i] != nil:
			r.Conns[keys[i]] = Conn{o.Src, o.Dst, o.Ports}
		default:
			r.Conns[new(int)] = Conn{o.Src, o.Dst, o.Ports}
		}
	}
	return outs
}

// Try is the verdict a one-request epoch for src→dst would reach now, with
// nothing held or changed: a grant's route, or a denial's fail level.
func (r *Ref) Try(src, dst int) core.Outcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dry(r.eng, src, dst)
}

// Routable is Level-wise first-fit over the current rows: what a plane's
// published view answers once every release is drained into it.
func (r *Ref) Routable(src, dst int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dry(&core.LevelWise{Opts: core.Options{Rollback: true}}, src, dst).Granted
}

// dry schedules src→dst with eng and rewinds the rows. Caller holds mu.
func (r *Ref) dry(eng core.Scheduler, src, dst int) core.Outcome {
	snap := r.St.Snapshot()
	o := eng.Schedule(r.St, []core.Request{{Src: src, Dst: dst}}).Outcomes[0]
	r.St.Restore(snap)
	o.Ports = append([]int(nil), o.Ports...)
	if !o.Granted {
		o.Ports = nil
	}
	return o
}

// Blocked is a denial's cause, by definition: Level-wise first-fit denies
// the pair on a plane holding nothing but the mask.
func (r *Ref) Blocked(src, dst int) bool {
	lw := &core.LevelWise{Opts: core.Options{Rollback: true}}
	return !lw.Schedule(r.FreshState(), []core.Request{{Src: src, Dst: dst}}).Outcomes[0].Granted
}

// Hold adopts a route the reference did not schedule itself — a repair, a
// grant of an epoch shared with repairs, a migrated connection — under key.
func (r *Ref) Hold(key any, src, dst int, ports []int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := Conn{src, dst, append([]int(nil), ports...)}
	if err := r.St.AllocatePath(c.Src, c.Dst, c.Ports); err != nil {
		return fmt.Errorf("reference: adopting %d→%d %v: %v", c.Src, c.Dst, c.Ports, err)
	}
	r.Conns[key] = c
	return nil
}

// Release returns a held connection's channels; one the reference does not
// hold (dropped by a fault) is a no-op.
func (r *Ref) Release(key any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.Conns[key]
	if !ok {
		return nil
	}
	delete(r.Conns, key)
	if err := r.St.ReleasePath(c.Src, c.Dst, c.Ports); err != nil {
		return fmt.Errorf("reference: releasing %d→%d %v: %v", c.Src, c.Dst, c.Ports, err)
	}
	return nil
}

// Fail masks the channels not already failed — quarantining any whose
// down-transitions reach damp — and drops every connection whose route
// crosses a channel it newly masked. It returns how many it newly masked
// and the dropped connections by key. A closed fabric refuses faults.
func (r *Ref) Fail(chans []faults.Channel) (fresh int, dropped map[any]Conn, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	newly := map[faults.Channel]bool{}
	dropped = map[any]Conn{}
	if r.Closed {
		return 0, dropped, nil
	}
	for _, c := range chans {
		if r.Failed[c] {
			continue
		}
		if !r.Quar[c] { // a quarantined channel is masked already
			newly[c] = true
			fresh++
		}
		if r.flaps[c]++; r.damp > 0 && r.flaps[c] >= r.damp {
			r.Quar[c] = true
		}
		r.Failed[c] = true
	}
	for k, c := range r.Conns {
		var cur topology.RouteCursor
		cur.Start(r.Tree, c.Src, c.Dst)
		cur.Walk(c.Ports, func(lvl, sigma, delta, p int) {
			if newly[faults.Channel{Dir: linkstate.Up, Level: lvl, Switch: sigma, Port: p}] ||
				newly[faults.Channel{Dir: linkstate.Down, Level: lvl, Switch: delta, Port: p}] {
				dropped[k] = c
			}
		})
	}
	for k := range dropped {
		delete(r.Conns, k)
	}
	return fresh, dropped, r.rebuild()
}

// Repair heals the failed channels among chans and returns how many came
// back into service (a quarantined one stays masked).
func (r *Ref) Repair(chans []faults.Channel) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range chans {
		if r.Failed[c] {
			delete(r.Failed, c)
			if !r.Quar[c] {
				n++
			}
		}
	}
	return n, r.rebuild()
}

// FailedChannels lists the failed channels in a fixed order.
func (r *Ref) FailedChannels() []faults.Channel {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []faults.Channel
	for c := range r.Failed {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// ClearQuarantine lifts every quarantine, forgets every flap, and returns
// how many channels came back into service.
func (r *Ref) ClearQuarantine() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for c := range r.Quar {
		if !r.Failed[c] {
			n++
		}
	}
	clear(r.Quar)
	clear(r.flaps)
	return n, r.rebuild()
}

// Unavailable is what a plane's Unavailable gauge reads between passes:
// the channels held plus the channels masked.
func (r *Ref) Unavailable() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(r.St.OccupiedCount() + r.St.FailedCount())
}
