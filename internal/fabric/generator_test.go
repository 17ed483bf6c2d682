package fabric

// The operation generator: sequences of every operation that changes a
// plane, run against a Manager and the reference fabric (fabrictest.Ref)
// side by side. After every operation CheckInvariants holds, the link
// states are equal, and the manager's repair queue and pending repairs are
// the reference's. An epoch no repair ticket shares matches the
// reference's verdicts (grant, fail level, cause, ports) bit for bit; the
// reference adopts what a shared one grants, and holds each repair it
// attempted to the reference's count: repaired, back in backoff, or ended
// — failed at RepairRetries attempts, aborted once closed. Every Fail
// revokes exactly the held routes crossing the channels it newly masks,
// every fault verb returns what the reference's model says, and Stats
// counts what the generator did. A release is split in two steps — claim,
// the owner's released CAS, and park, what Release does after it — that
// other operations can separate.
//
// The manager runs on a fake clock that only the generator's advance
// operation moves, by up to 300 ms at a time, and the reference's clock
// moves with it: repair backoffs, quarantine probation and flap decay run
// on both. Epochs run only when the generator flushes — MaxWait is an
// hour, longer than any sequence advances — so each outcome is a function
// of the sequence.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fabric/fabrictest"
	"repro/internal/faults"
	"repro/internal/topology"
)

// gen is one generated sequence in progress.
type gen struct {
	m    *Manager
	clk  *clock.Fake
	ref  *fabrictest.Ref
	tree *topology.Tree
	// held: connections the generator owns, active or repairing; claimed:
	// released by CAS, not parked yet.
	held, claimed []*Handle
	// marks leads a claimed handle to the interleaving that crashed the
	// manager before Fail revoked every crossing handle (1: revoked while
	// claimed, 2: then healed by RepairAll); healedParks counts its parks.
	marks       map[*Handle]int
	healedParks int
	// extended lists the channels whose quarantine a Fail extended, in
	// the operation in progress and in the one before it;
	// lapsedExtensions counts the advances that ended such a quarantine.
	extended         [2][]faults.Channel
	lapsedExtensions int
	// What Stats must count.
	offered, granted, rejected, cancelled, epochs int
	closed                                        bool
	last                                          string // the operation in progress
}

// newGen starts a sequence. A channel quarantines on its damp-th
// down-transition in a row (its score reaching damp − ½, so a flap score
// decayed between transitions may fall short); damp 0 turns damping off.
func newGen(tree *topology.Tree, rollback bool, damp int) (*gen, error) {
	spec := "level-wise"
	if rollback {
		spec += ",rollback"
	}
	clk, threshold := clock.NewFake(), max(float64(damp)-0.5, 0)
	m, err := New(Config{Tree: tree, SchedulerSpec: spec, BatchSize: 1 << 20, MaxWait: time.Hour,
		Clock: clk, FlapThreshold: threshold})
	if err != nil {
		return nil, err
	}
	m.Routable(0, tree.Nodes()-1) // switches the view on
	return &gen{m: m, clk: clk, ref: fabrictest.New(tree, spec, threshold), tree: tree, marks: map[*Handle]int{}}, nil
}

// owned is every connection the generator has not finished releasing.
func (g *gen) owned() []*Handle { return append(slices.Clone(g.held), g.claimed...) }

// check is what must hold after every operation.
func (g *gen) check() error {
	if err := g.m.CheckInvariants(); err != nil {
		return err
	}
	g.m.mu.Lock()
	defer g.m.mu.Unlock()
	if diff := rowsDiff(g.ref.St, g.m.st); diff != "" {
		return fmt.Errorf("manager rows differ from the reference's: %s", diff)
	}
	if got, want := queueDepth(g.m), len(g.ref.Queue); got != want {
		return fmt.Errorf("%d tickets queued, the reference %d repair tickets", got, want)
	}
	if got, want := g.m.pendingRepairs.Load(), len(g.ref.Repairs); got != int64(want) {
		return fmt.Errorf("%d repairs pending, the reference %d", got, want)
	}
	return nil
}

// epoch queues one ticket per request as Connect does, cancels the marked
// ones as a Connect whose context ended does, and runs one flush.
func (g *gen) epoch(reqs []core.Request, cancel []bool) error {
	g.last = fmt.Sprintf("epoch %v cancelling %v", reqs, cancel)
	if g.closed {
		for _, r := range reqs {
			if _, err := g.m.Connect(context.Background(), r.Src, r.Dst); !errors.Is(err, ErrDraining) || !errors.Is(err, ErrClosed) {
				return fmt.Errorf("Connect after Close = %v, want ErrDraining, an ErrClosed", err)
			}
		}
		return nil
	}
	var live []core.Request
	var tickets []*ticket
	for i, r := range reqs {
		tk := g.m.getTicket(r.Src, r.Dst)
		if _, err := g.m.enqueue(context.Background(), nil, tk); err != nil {
			return err
		}
		g.offered++
		if cancel[i] && tk.state.CompareAndSwap(ticketWaiting, ticketCancelled) {
			g.m.cancelled.Add(1) // Connect counts its own cancellation
			g.cancelled++
			continue
		}
		live, tickets = append(live, r), append(tickets, tk)
	}
	return g.flush(func() error {
		g.m.mu.Lock()
		verdicts := g.m.flushLocked()
		g.m.mu.Unlock()
		deliver(verdicts)
		return nil
	}, live, tickets)
}

// flush runs a pass (an epoch, or Close's last one) over the live client
// tickets and the repair tickets queued, and checks its verdicts.
func (g *gen) flush(run func() error, live []core.Request, tickets []*ticket) error {
	repairs := g.ref.TakeQueue()
	shared := len(repairs) > 0
	if len(live) > 0 || shared {
		g.epochs++
	}
	if err := run(); err != nil {
		return err
	}
	grants, denials := make([]*Handle, len(tickets)), make([]*UnroutableError, len(tickets))
	for i, tk := range tickets {
		r := <-tk.resp
		g.m.putTicket(tk)
		switch {
		case r.err == nil:
			g.granted++
			grants[i], g.held = r.h, append(g.held, r.h)
		case errors.As(r.err, &denials[i]):
			g.rejected++
		default:
			return fmt.Errorf("%v: %v", live[i], r.err)
		}
	}
	if !shared && len(live) > 0 {
		keys := make([]any, len(grants))
		for i, h := range grants {
			if h != nil {
				keys[i] = h
			}
		}
		for i, w := range g.ref.Epoch(live, keys) {
			h, d := grants[i], denials[i]
			switch {
			case (h != nil) != w.Granted || h != nil && !slices.Equal(h.ports(), w.Ports):
				return fmt.Errorf("%v: manager grants %v, reference %v %v", live[i], h != nil, w.Granted, w.Ports)
			case h == nil && (d.FailLevel != w.FailLevel || d.FaultBlocked != g.ref.Blocked(w.Src, w.Dst) ||
				d.FaultBlocked != strings.Contains(d.Error(), "blocked by faults")):
				return fmt.Errorf("%v: manager denies at level %d (fault-blocked %v), reference at %d",
					live[i], d.FailLevel, d.FaultBlocked, w.FailLevel)
			}
		}
	}
	for _, h := range grants {
		if shared && h != nil { // granted beside repairs
			if err := g.ref.Hold(h, h.src, h.dst, h.Ports()); err != nil {
				return err
			}
		}
	}
	for _, k := range repairs {
		if err := g.attempted(k.(*Handle)); err != nil {
			return err
		}
	}
	return nil
}

// attempted adopts the verdict of h's repair attempt in the pass just run
// and holds the manager's repair record to the reference's.
func (g *gen) attempted(h *Handle) error {
	granted := h.state.Load() == handleActive
	var ports []int
	if granted {
		ports = h.Ports()
	}
	attempts := h.repair.attempts
	ended, err := g.ref.Attempted(h, granted, ports)
	if err != nil || granted {
		return err
	}
	rp := g.ref.Repairs[h]
	switch {
	case ended && g.closed && !errors.Is(h.Err(), ErrClosed):
		return fmt.Errorf("repair of %d→%d denied after Close: Err %v, want ErrClosed", h.src, h.dst, h.Err())
	case ended && !g.closed && (attempts != fabrictest.RepairRetries || !errors.Is(h.Err(), ErrUnroutableDegraded)):
		return fmt.Errorf("repair of %d→%d ended after %d attempts with %v, want %d and ErrUnroutableDegraded",
			h.src, h.dst, attempts, h.Err(), fabrictest.RepairRetries)
	case !ended && (!h.Repairing() || attempts != rp.Attempts):
		return fmt.Errorf("repair of %d→%d: repairing %v after %d attempts, the reference %d",
			h.src, h.dst, h.Repairing(), attempts, rp.Attempts)
	}
	return nil
}

// claim is a release's first step, the owner's released CAS.
func (g *gen) claim(i int) error {
	h := g.held[i]
	g.held = slices.Delete(g.held, i, i+1)
	g.last = fmt.Sprintf("claim %d→%d", h.src, h.dst)
	if !h.released.CompareAndSwap(false, true) {
		return errors.New("a held handle was already released")
	}
	g.claimed = append(g.claimed, h)
	return nil
}

// park is a release's second step: what Release does after its CAS. A
// dead handle's release reports why; any other's reports nothing.
func (g *gen) park(i int) error {
	h := g.claimed[i]
	g.claimed = slices.Delete(g.claimed, i, i+1)
	g.last = fmt.Sprintf("park %d→%d", h.src, h.dst)
	if g.marks[h] == 2 {
		g.healedParks++
	}
	delete(g.marks, h)
	dead := h.state.Load() == handleDead
	var err error
	if !(h.state.Load() == handleActive && !g.m.closed.Load() && g.m.relRing.push(h)) {
		err = g.m.releaseSlow(h)
	}
	if dead != (err != nil) {
		return fmt.Errorf("release of a handle dead=%v = %v", dead, err)
	}
	return g.ref.Release(h)
}

// release takes both steps at once.
func (g *gen) release(i int) error {
	if err := g.claim(i); err != nil {
		return err
	}
	return g.park(len(g.claimed) - 1)
}

// fail fails fs and checks the revocations against the reference's.
func (g *gen) fail(fs *faults.FaultSet) error {
	g.last = fmt.Sprintf("fail %+v", fs.Links)
	owned := g.owned()
	active := make([]bool, len(owned))
	for i, h := range owned {
		active[i] = h.state.Load() == handleActive
	}
	chans := fs.Channels(g.tree)
	until := make([]time.Duration, len(chans))
	for i, c := range chans {
		until[i] = g.ref.Quar[c]
	}
	fresh, dropped, err := g.ref.Fail(chans)
	if err != nil {
		return err
	}
	for i, c := range chans {
		if u, q := g.ref.Quar[c]; q && until[i] > 0 && u > until[i] {
			g.extended[0] = append(g.extended[0], c)
		}
	}
	failed, revoked, err := g.m.Fail(fs)
	switch {
	case g.closed != errors.Is(err, ErrClosed) || !g.closed && err != nil:
		return fmt.Errorf("Fail on a manager closed=%v = %v", g.closed, err)
	case failed != fresh || revoked != len(dropped):
		return fmt.Errorf("Fail = (%d failed, %d revoked), reference (%d, %d)", failed, revoked, fresh, len(dropped))
	}
	for i, h := range owned {
		_, crosses := dropped[h]
		if got := active[i] && h.Repairing(); got != crosses {
			return fmt.Errorf("%d→%d revoked %v, crosses a newly masked channel %v", h.src, h.dst, got, crosses)
		} else if got && slices.Contains(g.claimed, h) {
			g.marks[h] = 1
		}
	}
	return nil
}

// advance moves both clocks by d: the backoffs that end re-queue their
// repairs (or, once closed, end them), and the probation timers that fire
// lift the quarantines that have expired.
func (g *gen) advance(d time.Duration) error {
	g.last = fmt.Sprintf("advance %v", d)
	for _, c := range g.extended[1] {
		if until, q := g.ref.Quar[c]; q && until <= g.ref.Now+d {
			g.lapsedExtensions++
		}
	}
	g.clk.Advance(d)
	aborted, err := g.ref.AdvanceTo(g.ref.Now + d)
	for _, k := range aborted {
		if h := k.(*Handle); err == nil && !errors.Is(h.Err(), ErrClosed) {
			err = fmt.Errorf("%d→%d's backoff ended after Close: Err %v, want ErrClosed", h.src, h.dst, h.Err())
		}
	}
	return err
}

// repair repairs fs, or every fault when fs is nil (RepairAll).
func (g *gen) repair(fs *faults.FaultSet) error {
	var got, want int
	var err error
	if fs == nil {
		g.last = "repair-all"
		want, err = g.ref.Repair(g.ref.FailedChannels())
		got = g.m.RepairAll()
		for h := range g.marks {
			g.marks[h] = 2
		}
	} else {
		g.last = fmt.Sprintf("repair %+v", fs.Links)
		want, err = g.ref.Repair(fs.Channels(g.tree))
		if err == nil {
			got, err = g.m.Repair(fs)
		}
	}
	if err == nil && got != want {
		err = fmt.Errorf("the manager repaired %d channels, the reference %d", got, want)
	}
	return err
}

// flap takes a link down and up twice: under damping the second
// down-transition quarantines its channels.
func (g *gen) flap(fs *faults.FaultSet) error {
	for _, op := range []func(*faults.FaultSet) error{g.fail, g.repair, g.fail, g.repair} {
		if err := op(fs); err != nil {
			return err
		}
		if err := g.check(); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) clearQuarantine() error {
	g.last = "clear-quarantine"
	want, err := g.ref.ClearQuarantine()
	if got := g.m.ClearQuarantine(); err == nil && got != want {
		err = fmt.Errorf("ClearQuarantine = %d, reference lifts %d", got, want)
	}
	return err
}

// stats holds a snapshot to what the generator did and the reference holds.
func (g *gen) stats() error {
	g.last = "stats"
	s := g.m.Stats()
	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"Offered", int(s.Offered), g.offered},
		{"Granted", int(s.Granted), g.granted},
		{"Rejected", int(s.Rejected), g.rejected},
		{"Cancelled", int(s.Cancelled), g.cancelled},
		{"Epochs", int(s.Epochs), g.epochs},
		{"EpochSize.N", s.EpochSize.N, g.epochs},
		{"EpochLatencyMS.N", s.EpochLatencyMS.N, g.epochs},
		{"RouteChurn.N", s.RouteChurn.N, g.epochs},
		{"RepairDepth.N", s.RepairDepth.N, int(s.Repaired)},
		{"RepairLatencyMS.N", s.RepairLatencyMS.N, int(s.Repaired)},
		{"Active", int(s.Active), len(g.ref.Conns)},
		{"QueueDepth", s.QueueDepth, len(g.ref.Queue)},
		{"PendingRepairs", int(s.PendingRepairs), len(g.ref.Repairs)},
		{"RepairAttempts", int(s.RepairAttempts), g.ref.Attempts},
		{"FaultyChannels", s.FaultyChannels, len(g.ref.Failed)},
		{"Quarantined", s.Quarantined, len(g.ref.Quar)},
		{"masked channels", int((1-s.DegradedCapacity)*float64(2*g.tree.TotalLinks()) + 0.5), g.ref.FreshState().FailedCount()},
	} {
		if c.got != c.want {
			return fmt.Errorf("Stats %s = %d, want %d", c.what, c.got, c.want)
		}
	}
	return nil
}

// close closes the manager: its last pass runs the queued repair tickets.
func (g *gen) close() error {
	g.last = "close"
	if g.closed {
		return g.m.Close(context.Background())
	}
	g.closed, g.ref.Closed = true, true
	return g.flush(func() error { return g.m.Close(context.Background()) }, nil, nil)
}

// finish closes the manager, releases everything the generator still owns
// and checks the plane is empty and Routable is Level-wise first-fit on it.
func (g *gen) finish() error {
	if err := g.close(); err != nil {
		return err
	}
	for len(g.claimed) > 0 {
		if err := g.park(0); err != nil {
			return err
		}
	}
	for len(g.held) > 0 {
		if err := g.release(0); err != nil {
			return err
		}
	}
	if err := g.check(); err != nil {
		return err
	}
	if s := g.m.Stats(); s.Active != 0 || s.PendingRepairs != 0 || len(g.ref.Conns) != 0 {
		return fmt.Errorf("after releasing everything: active %d, pending repairs %d, reference holds %d", s.Active, s.PendingRepairs, len(g.ref.Conns))
	}
	return routableMismatch(g.m)
}

// errNoop is what an operation returns when the sequence so far leaves it
// nothing to do.
var errNoop = errors.New("nothing to do")

// drive runs up to steps operations, each followed by check (and every
// 100th by the Routable oracle), then finish. It stops early at an
// operation with nothing to do and reports that step, -1 if none did.
func (g *gen) drive(steps int, op func() error) (noop int, err error) {
	noop = -1
	for step := 0; step < steps && noop < 0; step++ {
		g.extended = [2][]faults.Channel{nil, g.extended[0]}
		err := op()
		if errors.Is(err, errNoop) {
			noop = step
			continue
		}
		if err == nil {
			err = g.check()
		}
		if err == nil && step%100 == 99 {
			err = routableMismatch(g.m)
		}
		if err != nil {
			return -1, fmt.Errorf("step %d (%s): %w", step, g.last, err)
		}
	}
	if err := g.finish(); err != nil {
		return -1, fmt.Errorf("finish (%s): %w", g.last, err)
	}
	return noop, nil
}

// routed is every active connection the generator owns that holds channels.
func (g *gen) routed() []*Handle {
	var out []*Handle
	for _, h := range g.owned() {
		if h.state.Load() == handleActive && len(h.ports()) > 0 {
			out = append(out, h)
		}
	}
	return out
}

// firstHop is the link h climbs out of its source's switch on, or, with
// down, the one it descends into its destination's switch on.
func (g *gen) firstHop(h *Handle, down bool) *faults.FaultSet {
	end, dir := h.src, faults.Up
	if down {
		end, dir = h.dst, faults.Down
	}
	sw, _ := g.tree.NodeSwitch(end)
	return &faults.FaultSet{Links: []faults.LinkFault{{Switch: sw, Port: h.ports()[0], Direction: dir}}}
}

// randomOp runs one operation drawn from rng.
func (g *gen) randomOp(rng *rand.Rand) error {
	n := g.tree.Nodes()
	link := func() *faults.FaultSet {
		h := rng.Intn(g.tree.LinkLevels())
		return &faults.FaultSet{Links: []faults.LinkFault{{Level: h, Switch: rng.Intn(g.tree.SwitchesAt(h)),
			Port: rng.Intn(g.tree.Parents()), Direction: faults.Direction(rng.Intn(3))}}}
	}
	switch k := rng.Intn(22); {
	case k < 7 || k < 10 && len(g.held) == 0:
		reqs, cancel := make([]core.Request, 1+rng.Intn(6)), make([]bool, 6)
		for i := range reqs {
			reqs[i] = core.Request{Src: rng.Intn(n), Dst: rng.Intn(n)}
			cancel[i] = rng.Intn(4) == 0
		}
		return g.epoch(reqs, cancel)
	case k < 9:
		return g.release(rng.Intn(len(g.held)))
	case k < 10:
		return g.claim(rng.Intn(len(g.held)))
	case k < 12 && len(g.claimed) > 0:
		return g.park(rng.Intn(len(g.claimed)))
	case k < 15: // two in three fail the first hop of a held route, up or down
		routed := g.routed()
		if k == 12 || len(routed) == 0 {
			return g.fail(link())
		}
		return g.fail(g.firstHop(routed[rng.Intn(len(routed))], rng.Intn(2) == 0))
	case k < 16: // repair one failed link, both its channels
		failed := g.ref.FailedChannels()
		if len(failed) == 0 {
			return g.repair(nil)
		}
		c := failed[rng.Intn(len(failed))]
		return g.repair(&faults.FaultSet{Links: []faults.LinkFault{{Level: c.Level, Switch: c.Switch, Port: c.Port}}})
	case k < 17:
		return g.repair(nil)
	case k < 18:
		return g.flap(link())
	case k < 19:
		return g.clearQuarantine()
	case k < 20 && rng.Intn(20) == 0:
		return g.close()
	case k < 20:
		return g.stats()
	default:
		return g.advance(time.Duration(rng.Int63n(int64(300*time.Millisecond) + 1)))
	}
}

// runRandom runs one seeded sequence of steps operations, a channel's
// damp-th down-transition in a row quarantining it. Odd seeds schedule
// with rollback, even ones without.
func runRandom(tree *topology.Tree, damp int, seed int64, steps int) (*gen, error) {
	g, err := newGen(tree, seed%2 == 1, damp)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	_, err = g.drive(steps, func() error { return g.randomOp(rng) })
	return g, err
}

// TestGenerator is the random mode: 400 seeded operations on two- and
// three-level trees with wide and narrow rows and on a six-level tree whose
// routes outgrow a Handle's inline array, each with rollback (odd seeds)
// and without (even seeds). A link's second flap quarantines it, except on
// FT(3,4,2): there damping is on with a threshold no sequence reaches, and
// the manager must match the reference's clean-fault model bit for bit.
func TestGenerator(t *testing.T) {
	for _, shape := range [][3]int{{2, 4, 4}, {3, 4, 4}, {3, 6, 3}, {3, 4, 2}, {6, 2, 2}} {
		damp := 2
		if shape == [3]int{3, 4, 2} {
			damp = 1000
		}
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("FT%v/seed=%d", shape, seed), func(t *testing.T) {
				if _, err := runRandom(topology.MustNew(shape[0], shape[1], shape[2]), damp, seed, 400); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestReferenceConstants: the reference fabric restates the repair and
// damping constants, and its statement must be the manager's.
func TestReferenceConstants(t *testing.T) {
	if fabrictest.RepairRetries != RepairRetries || fabrictest.RepairBackoff != repairBackoff ||
		fabrictest.FlapHalfLife != flapHalfLife || fabrictest.QuarantineProbation != quarantineProbation {
		t.Fatal("fabrictest's repair and damping constants are not the manager's")
	}
}

// TestGeneratorParkedReleaseSeed is the seed on which the random mode
// reaches, unaided, the interleaving that crashed the manager before Fail
// revoked every crossing handle: a release claimed, a Fail crossing its
// route, RepairAll, the release parked, then a drain (steps 11, 25, 37 and
// 86). Before the one teardown rule the parked route named a channel that
// was free again and its teardown panicked with "release invariant
// violation".
func TestGeneratorParkedReleaseSeed(t *testing.T) {
	g, err := runRandom(topology.MustNew(2, 4, 4), 2, 8, 400)
	if err != nil {
		t.Fatal(err)
	}
	if g.healedParks == 0 {
		t.Fatal("the seed no longer parks a claimed release that a Fail revoked and RepairAll healed under")
	}
}

// TestGeneratorQuarantineExtensionSeed is the seed on which the random
// mode extends a quarantine and then, as the very next operation, advances
// past its end: a Fail at step 174 flaps a quarantined channel and the
// advance at step 175 crosses the new end. A manager that armed the
// probation timer only when a quarantine began never lifted the extended
// one; the channel was still failed as well, so the rows agreed until the
// RepairAll at step 178, which returns it to service in the reference
// only, and the manager fails that step.
func TestGeneratorQuarantineExtensionSeed(t *testing.T) {
	g, err := runRandom(topology.MustNew(2, 4, 4), 2, 185, 400)
	if err != nil {
		t.Fatal(err)
	}
	if g.lapsedExtensions == 0 {
		t.Fatal("the seed no longer advances past the end of a quarantine the operation before extended")
	}
}

// exhaustiveOps is the bounded-exhaustive mode's alphabet; exhaustiveOp
// makes each a fixed function of the sequence so far.
var exhaustiveOps = []string{"connect", "batch", "release", "claim", "park", "fail", "repair-all", "flap", "stats", "advance", "close"}

func (g *gen) exhaustiveOp(op string) error {
	n := g.tree.Nodes()
	switch op {
	case "connect":
		pairs := []core.Request{{Src: 0, Dst: n - 1}, {Src: n - 1, Dst: 0}, {Src: 1, Dst: n - 1}, {Src: 0, Dst: 1}}
		return g.epoch(pairs[g.offered%len(pairs):][:1], []bool{false})
	case "batch":
		return g.epoch([]core.Request{{Src: 0, Dst: n - 1}, {Src: 1, Dst: n - 2}, {Src: 1, Dst: n - 1}, {Src: n - 1, Dst: 0}},
			[]bool{false, true, false, false})
	case "release", "claim":
		if len(g.held) == 0 {
			return errNoop
		} else if op == "release" {
			return g.release(0)
		}
		return g.claim(len(g.held) - 1)
	case "park":
		if len(g.claimed) == 0 {
			return errNoop
		}
		return g.park(0)
	case "fail": // the first hop of the newest routed connection, or link 0
		if routed := g.routed(); len(routed) > 0 {
			return g.fail(g.firstHop(routed[len(routed)-1], false))
		}
		return g.fail(&faults.FaultSet{Links: []faults.LinkFault{{}}})
	case "repair-all":
		if len(g.ref.Failed) == 0 {
			return errNoop
		}
		return g.repair(nil)
	case "flap":
		return g.flap(&faults.FaultSet{Links: []faults.LinkFault{{Port: 1}}})
	case "stats":
		return g.stats()
	case "advance": // the first backoff: a denied repair re-queues
		return g.advance(repairBackoff)
	}
	if g.closed {
		return errNoop
	}
	return g.close()
}

// exhaustiveDepth is k: every sequence of up to k operations runs. One
// whose last operation has nothing to do stops there, and the sequences
// extending it are skipped.
const exhaustiveDepth = 4

// TestGeneratorExhaustive is the bounded-exhaustive mode: every sequence of
// up to exhaustiveDepth operations on FT(2,2,2) and FT(3,2,2), with and
// without rollback. Nothing is damped; the random mode covers quarantine,
// and the repairs that run out of attempts.
func TestGeneratorExhaustive(t *testing.T) {
	for _, shape := range [][3]int{{2, 2, 2}, {3, 2, 2}} {
		for _, rollback := range []bool{true, false} {
			tree := topology.MustNew(shape[0], shape[1], shape[2])
			t.Run(fmt.Sprintf("FT%v/rollback=%v", shape, rollback), func(t *testing.T) {
				var extend func(prefix []string)
				extend = func(prefix []string) {
					for _, op := range exhaustiveOps {
						seq := append(prefix[:len(prefix):len(prefix)], op)
						g, err := newGen(tree, rollback, 0)
						if err != nil {
							t.Fatal(err)
						}
						step := -1
						noop, err := g.drive(len(seq), func() error { step++; return g.exhaustiveOp(seq[step]) })
						if err != nil {
							t.Fatalf("sequence %v: %v", seq, err)
						}
						if noop < 0 && len(seq) < exhaustiveDepth {
							extend(seq)
						}
					}
				}
				extend(nil)
			})
		}
	}
}
