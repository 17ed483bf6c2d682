// Package fabrictest holds the reference fabric: what a fabric.Manager
// does, written the obvious way, for the tests of the fabric and of the
// tiers built on it. Its own link state, rebuilt after every mask change;
// the same registry engine, one pass of it over the live requests in
// queue order per epoch, a no-rollback engine's retained partial routes
// released after it; synchronous release; Fail masking channels and
// revoking the connections that cross them into repair; flap damping. No
// lock, pool, ring, view or goroutine: one goroutine drives it.
//
// Time is a model clock, Now, that only AdvanceTo moves. On it the
// reference keeps the manager's timers as due times: a denied repair's
// backoff, which puts its ticket back in the queue, and a quarantine's
// end, which lifts it. A flap score decays by the fabric's own expression,
// so the two agree bit for bit. A quarantine ends only in AdvanceTo, at
// the end of its probation, or in ClearQuarantine, as in the manager.
//
// The package does not import internal/fabric, whose own tests import it.
// A connection is held under a comparable key the caller chooses — the
// manager's handle for it, or a federated handle — and its endpoints and
// route are passed in, never read off a handle.
package fabrictest

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/linkstate"
	"repro/internal/sched"
	"repro/internal/topology"
)

// The fabric's repair and damping constants, restated: a repair gets
// RepairRetries attempts, attempt k+1 RepairBackoff << (k-1) after attempt
// k; a flap score halves every FlapHalfLife; a quarantine lasts
// QuarantineProbation past its channel's last flap.
const (
	RepairRetries       = 8
	RepairBackoff       = 2 * time.Millisecond
	FlapHalfLife        = time.Second
	QuarantineProbation = 100 * time.Millisecond
)

// Ref is the reference fabric. Its exported fields are the model's state,
// for the caller to compare against; change them only through the methods.
type Ref struct {
	Tree *topology.Tree
	eng  sched.Engine
	// St holds the mask and every held route.
	St *linkstate.State
	// Conns are the held connections by key.
	Conns map[any]Conn
	// Failed are the failed channels; Quar the quarantined ones, each with
	// the end of its probation.
	Failed map[faults.Channel]bool
	Quar   map[faults.Channel]time.Duration
	flaps  map[faults.Channel]flap
	damp   float64 // the score that quarantines a channel; 0: never
	// Repairs are the revoked connections whose repair has not ended, by
	// key. Queue is the repair tickets waiting for the next epoch in the
	// order they joined it; a ticket whose repair ended meanwhile (its
	// owner released it) stays in it until that epoch, as in the manager.
	Repairs map[any]*Repair
	Queue   []any
	// Attempts counts every repair's scheduling attempts so far.
	Attempts int
	// Now is the model clock: the time since the fabric started.
	Now time.Duration
	// Closed refuses faults, as a closed manager does.
	Closed bool
}

// Repair is one revoked connection's repair.
type Repair struct {
	Src, Dst int
	// Attempts counts the scheduling attempts so far; Due is when a repair
	// waiting out its backoff re-joins the queue, and Queued whether it has.
	Attempts int
	Due      time.Duration
	Queued   bool
}

// flap is one channel's decayed flap score.
type flap struct {
	score float64
	last  time.Duration
}

// Conn is one held connection.
type Conn struct {
	Src, Dst int
	Ports    []int
}

// New is an empty reference over tree that schedules with the registry
// engine spec. A channel whose decayed flap score reaches damp is
// quarantined — the fabric's FlapThreshold — and damp 0 turns damping off.
func New(tree *topology.Tree, spec string, damp float64) *Ref {
	return &Ref{Tree: tree, eng: sched.MustParse(spec), St: linkstate.New(tree), Conns: map[any]Conn{},
		Failed: map[faults.Channel]bool{}, Quar: map[faults.Channel]time.Duration{}, flaps: map[faults.Channel]flap{},
		damp: damp, Repairs: map[any]*Repair{}}
}

// FreshState is a link state with every masked channel failed and nothing
// held.
func (r *Ref) FreshState() *linkstate.State {
	st := linkstate.New(r.Tree)
	for c := range r.Failed {
		st.FailLink(c.Dir, c.Level, c.Switch, c.Port)
	}
	for c := range r.Quar {
		if !r.Failed[c] {
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
// nothing. The caller has taken the repair queue (TakeQueue), as the epoch
// does before it schedules.
func (r *Ref) Epoch(reqs []core.Request, keys []any) []core.Outcome {
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
	return r.dry(r.eng, src, dst)
}

// Routable is Level-wise first-fit over the current rows: what a plane's
// published view answers once every release is drained into it.
func (r *Ref) Routable(src, dst int) bool {
	return r.dry(&core.LevelWise{Opts: core.Options{Rollback: true}}, src, dst).Granted
}

// dry schedules src→dst with eng and rewinds the rows.
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
	c := Conn{src, dst, append([]int(nil), ports...)}
	if err := r.St.AllocatePath(c.Src, c.Dst, c.Ports); err != nil {
		return fmt.Errorf("reference: adopting %d→%d %v: %v", c.Src, c.Dst, c.Ports, err)
	}
	r.Conns[key] = c
	return nil
}

// Release returns a held connection's channels, or ends the repair of one
// a fault revoked; any other key is a no-op.
func (r *Ref) Release(key any) error {
	delete(r.Repairs, key)
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

// Fail masks the channels not already failed — counting a flap on each
// and quarantining those whose score reaches damp — and revokes every
// connection whose route crosses a channel it newly masks: each joins the
// repair queue. It returns how many channels it newly masked and the
// revoked connections by key. A closed fabric refuses faults.
func (r *Ref) Fail(chans []faults.Channel) (fresh int, dropped map[any]Conn, err error) {
	newly := map[faults.Channel]bool{}
	dropped = map[any]Conn{}
	if r.Closed {
		return 0, dropped, nil
	}
	for _, c := range chans {
		if r.Failed[c] {
			continue
		}
		if _, q := r.Quar[c]; !q { // a quarantined channel is masked already
			newly[c] = true
			fresh++
		}
		if r.damp > 0 {
			r.noteFlap(c)
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
	for k, c := range dropped {
		delete(r.Conns, k)
		r.Repairs[k] = &Repair{Src: c.Src, Dst: c.Dst, Queued: true}
		r.Queue = append(r.Queue, k)
	}
	return fresh, dropped, r.rebuild()
}

// noteFlap counts a down-transition of c at Now: the score decays, grows by
// one, and from damp on (re)starts c's quarantine.
func (r *Ref) noteFlap(c faults.Channel) {
	f, seen := r.flaps[c]
	if dt := r.Now - f.last; seen && dt > 0 {
		f.score *= math.Exp2(-float64(dt) / float64(FlapHalfLife))
	}
	f.score++
	f.last = r.Now
	r.flaps[c] = f
	if f.score < r.damp {
		return
	}
	r.Quar[c] = r.Now + QuarantineProbation
}

// AdvanceTo moves Now to t, firing every timer due by then: each
// quarantine whose probation ends by t lifts, and a repair's backoff puts
// its ticket back in the queue — or, on a closed fabric, ends the repair,
// aborted; those keys are returned.
func (r *Ref) AdvanceTo(t time.Duration) (aborted []any, err error) {
	if t < r.Now {
		return nil, fmt.Errorf("reference: advancing to %v, before now (%v)", t, r.Now)
	}
	r.Now = t
	lifted := false
	for c, until := range r.Quar {
		if until <= t {
			delete(r.Quar, c)
			lifted = true
		}
	}
	if lifted {
		if err := r.rebuild(); err != nil {
			return nil, err
		}
	}
	// Backoffs that end by t requeue, each at its own due time; nothing
	// the reference checks reads their order.
	for k, rp := range r.Repairs {
		switch {
		case rp.Queued || rp.Due > t:
		case r.Closed:
			delete(r.Repairs, k)
			aborted = append(aborted, k)
		default:
			rp.Queued = true
			r.Queue = append(r.Queue, k)
		}
	}
	return aborted, nil
}

// TakeQueue empties the repair queue, as an epoch does, and returns the
// keys of the repairs still live in it, in queue order: the ones that
// epoch attempts.
func (r *Ref) TakeQueue() []any {
	var live []any
	for _, k := range r.Queue {
		if rp := r.Repairs[k]; rp != nil && rp.Queued {
			live = append(live, k)
		}
	}
	r.Queue = r.Queue[:0]
	return live
}

// Attempted applies the verdict of a taken repair's attempt: a grant holds
// the route and ends the repair; a denial counts, and either arms the
// backoff or ends the repair — aborted on a closed fabric, failed at
// RepairRetries attempts. ended reports whether the repair ended.
func (r *Ref) Attempted(key any, granted bool, ports []int) (ended bool, err error) {
	rp := r.Repairs[key]
	if rp == nil || !rp.Queued {
		return false, fmt.Errorf("reference: a repair attempted that is not queued")
	}
	r.Attempts++
	if granted {
		delete(r.Repairs, key)
		return true, r.Hold(key, rp.Src, rp.Dst, ports)
	}
	rp.Attempts++
	if r.Closed || rp.Attempts >= RepairRetries {
		delete(r.Repairs, key)
		return true, nil
	}
	rp.Queued, rp.Due = false, r.Now+RepairBackoff<<(rp.Attempts-1)
	return false, nil
}

// Repair heals the failed channels among chans and returns how many came
// back into service (a quarantined one stays masked).
func (r *Ref) Repair(chans []faults.Channel) (int, error) {
	n := 0
	for _, c := range chans {
		if r.Failed[c] {
			delete(r.Failed, c)
			if _, q := r.Quar[c]; !q {
				n++
			}
		}
	}
	return n, r.rebuild()
}

// FailedChannels lists the failed channels in a fixed order.
func (r *Ref) FailedChannels() []faults.Channel {
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
	return int64(r.St.OccupiedCount() + r.St.FailedCount())
}
