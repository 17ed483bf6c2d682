package federation

// The router generator: sequences of every operation that changes a
// federation, run against a Router and the reference router (oracle_test.go)
// side by side. After every operation Router.CheckInvariants holds; Stats,
// every plane's failure streak and the calls each plane's surface received
// equal the reference's; and every handle reads as the reference says: alive
// on its plane with its route, migrating, or lost. A walk no other walk ran
// beside matches bit for bit — the planes asked, the granting plane and
// route, or the denial's error, fail level and cause. A Connect is split in
// two, admit (Connect up to its register call) and register, and register's
// SetOwner can run alone as own, so a fault can land in either gap.
//
// The router and its planes run on one fake clock, which moves only when
// the generator moves it and the reference's clock with it: by zero after
// a fault, which runs the plane's repair epoch, and by up to 300 ms in the
// advance operation. Every plane runs epochs of one request, so an epoch
// reads no timer; a denied repair waits out its backoff, and after its
// 8th denial the router migrates the circuit; an ejected plane is probed
// every 50 ms. The generator advances one due instant at a time, and at
// each the planes' repair attempts run and the router migrates what they
// retire on hook goroutines, so it waits for those events — hooks finished
// — before it looks. An instant with one attempt is predicted: its verdict
// and, when it ends the repair, the migration's walk. Several run side by
// side, so the reference adopts their verdicts, what the migrations
// granted, and the counters and health their interleaving left.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fabric/fabrictest"
	"repro/internal/faults"
	"repro/internal/topology"
)

// probe wraps a plane's surface: it counts the Routable and Admit calls the
// router makes, answers yes to every Routable of a blind plane — so the
// router learns a denial only by admitting — and passes CheckInvariants on.
type probe struct {
	fabric.Surface
	blind             bool
	routables, admits atomic.Uint64
}

func (p *probe) Routable(src, dst int) bool {
	p.routables.Add(1)
	return p.blind || p.Surface.Routable(src, dst)
}

func (p *probe) Admit(ctx context.Context, src, dst int) (fabric.Conn, error) {
	p.admits.Add(1)
	return p.Surface.Admit(ctx, src, dst)
}

func (p *probe) CheckInvariants() error { return p.Surface.(*fabric.Manager).CheckInvariants() }

// journal is what the planes report as it happens, per plane: the route of
// every revocation, and the revocations settled — repaired, or retired and
// finished with by the router's hook.
type journal struct {
	mu      sync.Mutex
	revoked [][]string
	settled []int
}

// planeSpec is one plane of a generated federation.
type planeSpec struct {
	shape [3]int
	spec  string
	blind bool
}

// fedSpec is a generated federation.
type fedSpec struct {
	name   string
	policy Policy
	planes []planeSpec
	// faulted planes, the first ones, start with 10 % of their links
	// failed, as fed_degraded's do.
	faulted int
}

// pend is an admitted circuit whose Connect has not reached register.
type pend struct {
	fh              *Handle
	c               fabric.Conn
	pi              int
	owned, released bool
}

// fate is what the reference says of a live handle: the plane holding it
// (once lost, the plane that lost it); lost; stranded — its plane retired it
// while nobody owned it, and register will migrate it.
type fate struct {
	plane          int
	lost, stranded bool
}

// gen is one generated sequence in progress.
type gen struct {
	r        *Router
	clk      *clock.Fake
	ref      *refRouter
	probes   []*probe
	log      *journal
	held     []*Handle // registered, not released
	pend     []*pend
	released []*Handle
	fates    map[*Handle]*fate
	// conns is the plane circuit each revoked handle held, for reading its
	// repair's verdicts.
	conns  map[*Handle]fabric.Conn
	closed bool
	last   string // the operation in progress
	// windowReleases counts releases in the window between a plane
	// retiring a circuit and the router picking it up; windowRegisters the
	// registers that found their circuit retired and migrated it.
	windowReleases, windowRegisters int
}

// newGen builds a federation of fs and its reference.
func newGen(fs fedSpec) (*gen, error) {
	log := &journal{revoked: make([][]string, len(fs.planes)), settled: make([]int, len(fs.planes))}
	clk := clock.NewFake()
	cfg := Config{Policy: fs.policy, Clock: clk}
	for i, ps := range fs.planes {
		note := func(route string) {
			log.mu.Lock()
			defer log.mu.Unlock()
			if route != "" {
				log.revoked[i] = append(log.revoked[i], route)
			} else {
				log.settled[i]++
			}
		}
		cfg.Planes = append(cfg.Planes, PlaneConfig{Fabric: fabric.Config{
			Tree: topology.MustNew(ps.shape[0], ps.shape[1], ps.shape[2]), SchedulerSpec: ps.spec, BatchSize: 1,
			Trace: func(e fabric.Event) {
				if e.Kind == fabric.EventRevoke {
					note(fmt.Sprint(e.Src, e.Dst, e.Ports))
				} else if e.Kind == fabric.EventRepair {
					note("")
				}
			},
			OnConnTerminal: func(fabric.Conn, error) { note("") }, // chained after the router's: its migration is over
		}})
	}
	r, err := New(cfg)
	if err != nil {
		return nil, err
	}
	g := &gen{r: r, clk: clk, ref: &refRouter{cfg: r.cfg, start: clk.Now()}, log: log,
		fates: map[*Handle]*fate{}, conns: map[*Handle]fabric.Conn{}}
	for i, ps := range fs.planes {
		pr := &probe{Surface: r.planes[i].surf, blind: ps.blind}
		r.planes[i].surf = pr
		g.probes = append(g.probes, pr)
		g.ref.planes = append(g.ref.planes, &refPlane{name: r.planes[i].name,
			blind: ps.blind, fab: fabrictest.New(pr.Tree(), ps.spec, 0), health: 1})
	}
	for i := 0; i < fs.faulted; i++ {
		if err := g.fail(i, faults.Uniform(g.ref.planes[i].fab.Tree, 0.10, int64(i+1)), false); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// mark is where the planes' calls and reports stood when an operation began.
type mark struct {
	calls            [][2]uint64
	revoked, settled []int
}

func (g *gen) mark() mark {
	var m mark
	for _, p := range g.probes {
		m.calls = append(m.calls, [2]uint64{p.routables.Load(), p.admits.Load()})
	}
	g.log.mu.Lock()
	defer g.log.mu.Unlock()
	for _, r := range g.log.revoked {
		m.revoked = append(m.revoked, len(r))
	}
	m.settled = slices.Clone(g.log.settled)
	return m
}

// settle waits for cond, which the planes' timers and the router's hooks
// make true; it yields rather than sleeps, and gives up after ten seconds.
func settle(what string, cond func() bool) error {
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
	}
	return nil
}

// check is what must hold after every operation.
func (g *gen) check() error {
	r, o := g.r, g.ref
	if err := r.CheckInvariants(); err != nil {
		return err
	}
	s := r.Stats()
	type pair struct {
		what      string
		got, want uint64
	}
	pairs := []pair{
		{"Offered", s.Offered, o.offered}, {"Granted", s.Granted, o.granted}, {"Rejected", s.Rejected, o.rejected},
		{"Cancelled", s.Cancelled, o.cancelled}, {"Failovers", s.Failovers, o.failovers}, {"Readmitted", s.Readmitted, o.readmitted},
		{"Lost", s.Lost, o.lost},
		{"PendingReadmits", uint64(s.PendingReadmits), 0}, {"round-robin counter", r.rr.Load(), o.rr},
	}
	minG, maxG := uint64(math.MaxUint64), uint64(0)
	for i, ps := range s.Planes {
		q, pr := o.planes[i], g.probes[i]
		minG, maxG = min(minG, q.grants), max(maxG, q.grants)
		for _, c := range []pair{
			{"Grants", ps.Grants, q.grants}, {"HintMisses", ps.HintMisses, q.hintMisses}, {"Opens", ps.Opens, q.opens},
			{"failure streak", uint64(r.planes[i].failStreak.Load()), uint64(q.streak)},
			{"Routable calls", pr.routables.Load(), q.routables}, {"Admit calls", pr.admits.Load(), q.admits},
			{"Unavailable", uint64(pr.Unavailable()), uint64(q.fab.Unavailable())},
			{"Occupancy", uint64(ps.Occupancy), uint64(q.fab.St.OccupiedCount())},
			{"Active", uint64(ps.Fabric.Active), uint64(len(q.fab.Conns))},
			{"PendingRepairs", uint64(ps.Fabric.PendingRepairs), uint64(len(q.fab.Repairs))},
			{"RepairAttempts", ps.Fabric.RepairAttempts, uint64(q.fab.Attempts)},
			{"last probe", uint64(r.planes[i].lastProbe.Load()), uint64(q.lastProbe)},
			{"FaultyChannels", uint64(ps.Fabric.FaultyChannels), uint64(len(q.fab.Failed))},
		} {
			pairs = append(pairs, pair{ps.Name + " " + c.what, c.got, c.want})
		}
		if ps.Name != q.name || ps.Breaker != breakerName(q.breaker) || ps.Healthy != (q.breaker == bClosed) || ps.Degraded != q.degraded ||
			math.Abs(ps.Health-q.health) > 1e-12 {
			return fmt.Errorf("plane %s: breaker %s healthy %v degraded %v health %v; reference %+v",
				ps.Name, ps.Breaker, ps.Healthy, ps.Degraded, ps.Health, *q)
		}
	}
	for _, c := range pairs {
		if c.got != c.want {
			return fmt.Errorf("%s = %d, reference %d", c.what, c.got, c.want)
		}
	}
	if want := float64(maxG) / float64(minG); minG == 0 && s.Imbalance != 0 || minG > 0 && s.Imbalance != want {
		return fmt.Errorf("Imbalance %v, reference grants %d..%d", s.Imbalance, minG, maxG)
	}
	for fh, f := range g.fates {
		err, repairing, ports := fh.Err(), fh.Repairing(), fh.Ports()
		_, fixing := o.planes[f.plane].fab.Repairs[fh]
		bad := err != nil || repairing || !slices.Equal(ports, o.planes[f.plane].fab.Conns[fh].Ports)
		if f.lost {
			bad = !errors.Is(err, ErrConnLost) || repairing || len(ports) > 0
		} else if f.stranded || fixing {
			bad = err != nil || !repairing || len(ports) > 0
		}
		if name := o.planes[f.plane].name; bad || fh.Plane() != name {
			return fmt.Errorf("handle %d→%d on %s: Err %v, Repairing %v, Ports %v; reference %+v on %s",
				fh.src, fh.dst, fh.Plane(), err, repairing, ports, *f, name)
		}
	}
	return nil
}

// walked plans the walk the router just ran for src→dst, skipping skip, and
// checks it against what the router did: got is the plane it granted on
// (-1: none) and ports its route; denied is the error it ended with, or a
// lost circuit's, whose last clause is the walk's. It then applies the walk,
// key holding a grant. Under the random policy the reference cannot know
// where the order started, so it takes the rotation whose walk matches.
func (g *gen) walked(src, dst, skip, got int, ports []int, denied error, m mark, key any) error {
	o := g.ref
	rots := 1
	if o.cfg.Policy == PolicyRandom {
		rots = len(o.planes)
	}
	var first error
	for k := 0; k < rots; k++ {
		order, probes := o.candidates(src, dst, int(o.rr)+k)
		w := o.plan(src, dst, skip, order, probes)
		err := g.matches(w, got, ports, denied, m)
		if err == nil {
			return o.apply(w, key)
		}
		if first == nil {
			first = fmt.Errorf("walk %d→%d over %v: %w", src, dst, w.order, err)
		}
	}
	return first
}

// matches reports the first difference between a planned walk and the one
// the router ran.
func (g *gen) matches(w *walk, got int, ports []int, denied error, m mark) error {
	if want := w.grant(); got != want {
		return fmt.Errorf("granted on plane %d, reference %d", got, want)
	} else if got >= 0 && !slices.Equal(ports, w.tries[len(w.tries)-1].out.Ports) {
		return fmt.Errorf("route %v, reference %v", ports, w.tries[len(w.tries)-1].out.Ports)
	} else if want := w.err().Error(); got < 0 &&
		(denied == nil || denied.Error() != want && !strings.HasSuffix(denied.Error(), "re-admission failed: "+want)) {
		return fmt.Errorf("denied with %v, reference %s", denied, want)
	}
	for i, p := range g.probes {
		asked, tried := p.routables.Load()-m.calls[i][0], p.admits.Load()-m.calls[i][1]
		for _, pi := range w.asked {
			asked -= b2u(pi == i)
		}
		for _, t := range w.tries {
			tried -= b2u(t.plane == i)
		}
		if asked != 0 || tried != 0 {
			return fmt.Errorf("plane %d asked Routable %+d and Admit %+d times more than the reference", i, int64(asked), int64(tried))
		}
	}
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// connect runs a whole Connect, or with split only its admit half: the
// walk, the counting, the federated handle, up to the register call.
func (g *gen) connect(src, dst int, split bool) error {
	g.last = fmt.Sprintf("connect %d→%d split %v", src, dst, split)
	r, m := g.r, g.mark()
	var fh *Handle
	var err error
	switch {
	case g.closed:
		if _, err := r.Connect(context.Background(), src, dst); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("Connect after Close = %v, want ErrClosed", err)
		}
		return nil
	case !split:
		if fh, err = r.Connect(context.Background(), src, dst); fh != nil {
			g.held = append(g.held, fh)
		}
	default:
		r.offered.Add(1)
		c, pi, aerr := r.admitConn(context.Background(), src, dst, -1)
		if err = aerr; err != nil {
			if failoverable(err) {
				r.rejected.Add(1)
			} else {
				r.cancelled.Add(1)
			}
		} else {
			r.granted.Add(1)
			fh = &Handle{r: r, src: src, dst: dst, conn: c, plane: pi}
			g.pend = append(g.pend, &pend{fh: fh, c: c, pi: pi})
		}
	}
	got, ports := -1, []int(nil)
	if fh != nil {
		got, ports = fh.plane, fh.Ports()
	} else if !errors.As(err, new(*fabric.UnroutableError)) {
		return fmt.Errorf("Connect = %v, want a grant or an unroutable denial", err)
	}
	g.ref.offered++
	if err := g.walked(src, dst, -1, got, ports, err, m, fh); err != nil {
		return err
	} else if fh == nil {
		g.ref.rejected++
		return nil
	}
	g.ref.granted++
	g.fates[fh] = &fate{plane: got}
	return nil
}

// register ends a Connect: a circuit its plane retired while nobody owned
// it migrates now.
func (g *gen) register(i int) error {
	pd := g.pend[i]
	g.pend = slices.Delete(g.pend, i, i+1)
	fh := pd.fh
	g.last = fmt.Sprintf("register %d→%d", fh.src, fh.dst)
	f, m := g.fates[fh], g.mark()
	g.r.register(pd.c, pd.pi, fh)
	if !pd.released {
		g.held = append(g.held, fh)
	}
	if f == nil || !f.stranded {
		return nil
	}
	g.windowRegisters++
	want := g.ref.readmitted + g.ref.lost + 1
	if err := settle("the re-check's migration", func() bool {
		return g.r.readmitted.Load()+g.r.lost.Load() == want && g.r.pendingReadmits.Load() == 0
	}); err != nil {
		return err
	}
	f.stranded = false
	return g.migrated([]migrant{{fh, f.plane}}, true, m)
}

// migrant is a circuit whose plane retired it, and that plane.
type migrant struct {
	fh   *Handle
	lost int
}

// migrated settles the walks that migrated circuits their planes retired.
// With predict, one walk is predicted; otherwise they ran side by side with
// each other or with repair epochs, so the reference adopts their grants,
// checks each landed off the plane that lost it, and takes the router's
// word for the counters and health their interleaving set.
func (g *gen) migrated(ms []migrant, predict bool, m mark) error {
	o := g.ref
	for _, mg := range ms {
		fh, lost := mg.fh, mg.lost
		fh.mu.Lock()
		got, ports, err := fh.plane, []int(nil), fh.terminal
		if err != nil {
			got = -1
		} else {
			ports = fh.conn.Ports()
		}
		fh.mu.Unlock()
		switch {
		case predict:
			if err := g.walked(fh.src, fh.dst, lost, got, ports, err, m, fh); err != nil {
				return fmt.Errorf("migrating %d→%d off plane %d: %w", fh.src, fh.dst, lost, err)
			}
		case got == lost:
			return fmt.Errorf("%d→%d migrated onto plane %d, which retired it", fh.src, fh.dst, lost)
		case got >= 0:
			o.planes[got].grants++
			if err := o.planes[got].fab.Hold(fh, fh.src, fh.dst, ports); err != nil {
				return err
			}
		}
		if got < 0 && !errors.Is(err, ErrConnLost) {
			return fmt.Errorf("%d→%d lost with %v, want ErrConnLost", fh.src, fh.dst, err)
		} else if got < 0 {
			o.lost++
			g.fates[fh].lost = true
		} else {
			o.readmitted++
			g.fates[fh].plane = got
		}
	}
	if predict {
		return nil
	}
	g.adopt()
	return nil
}

// adopt takes the router's word for its counters and every plane's health
// and calls, which walks that ran side by side left in an order the
// reference cannot know.
func (g *gen) adopt() {
	r, o := g.r, g.ref
	o.rr, o.failovers = r.rr.Load(), r.failovers.Load()
	for i, p := range r.planes {
		q := o.planes[i]
		q.hintMisses, q.opens, q.streak = p.hintMisses.Load(), p.opens.Load(), int(p.failStreak.Load())
		q.health, q.breaker, q.lastProbe = p.healthNow(), p.breaker.Load(), p.lastProbe.Load()
		q.routables, q.admits = g.probes[i].routables.Load(), g.probes[i].admits.Load()
	}
}

// fail fails fs on plane p — through Plane(name).Fail, or with kill through
// KillPlane, fs then being every switch above level 0 — checks the plane
// revoked exactly the routes the reference dropped, and runs the plane's
// repair epoch, the first attempt of each revocation's repair.
func (g *gen) fail(p int, fs *faults.FaultSet, kill bool) error {
	q, m := g.ref.planes[p], g.mark()
	g.last = fmt.Sprintf("fail %s %+v kill %v", q.name, fs.Links, kill)
	for key := range q.fab.Conns { // the circuits a Fail may revoke
		fh := key.(*Handle)
		fh.mu.Lock()
		g.conns[fh] = fh.conn
		fh.mu.Unlock()
	}
	fresh, dropped, err := q.fab.Fail(fs.Channels(q.fab.Tree))
	if err != nil {
		return err
	}
	var failed, revoked int
	if kill {
		q.eject(g.ref.nowNano())
		err, failed, revoked = g.r.KillPlane(q.name), fresh, len(dropped)
	} else {
		surf, _ := g.r.Plane(q.name)
		failed, revoked, err = surf.Fail(fs)
	}
	if g.closed != errors.Is(err, fabric.ErrClosed) || !g.closed && err != nil || failed != fresh || revoked != len(dropped) {
		return fmt.Errorf("Fail = (%d failed, %d revoked, %v) on a plane closed=%v, reference (%d, %d)",
			failed, revoked, err, g.closed, fresh, len(dropped))
	}
	g.log.mu.Lock()
	routes := slices.Clone(g.log.revoked[p][m.revoked[p]:])
	g.log.mu.Unlock()
	var want []string
	for _, c := range dropped {
		want = append(want, fmt.Sprint(c.Src, c.Dst, c.Ports))
	}
	sort.Strings(routes)
	if sort.Strings(want); !slices.Equal(routes, want) {
		return fmt.Errorf("plane %d revoked %v, reference drops %v", p, routes, want)
	}
	return g.instant(g.ref.now)
}

// attempt is one repair attempt of an instant: the circuit, its plane, and
// the reference's verdict when the attempt ran alone.
type attempt struct {
	fh   *Handle
	p    int
	want *core.Outcome
}

// instant moves both clocks to t, a due instant no later than the
// reference's earliest timer, and settles what happens there: the planes'
// backoffs that end re-queue their repairs (or, once closed, end them),
// every plane's repair epoch runs its queue, and the router migrates each
// circuit whose repair ended. An instant with one repair attempt and
// nothing else is predicted bit for bit; otherwise the attempts, and the
// migrations they start, ran side by side, and the reference adopts them.
func (g *gen) instant(t time.Duration) error {
	o, m := g.ref, g.mark()
	var attempts []attempt
	var ended []migrant
	for p, q := range o.planes {
		aborted, err := q.fab.AdvanceTo(t)
		if err != nil {
			return err
		}
		for _, k := range aborted {
			ended = append(ended, migrant{k.(*Handle), p})
		}
		for _, k := range q.fab.TakeQueue() {
			attempts = append(attempts, attempt{fh: k.(*Handle), p: p})
		}
	}
	o.now = t
	alone := len(attempts) == 1 && len(ended) == 0
	if alone {
		a := &attempts[0]
		w := o.planes[a.p].fab.Try(a.fh.src, a.fh.dst)
		a.want = &w
	}
	g.clk.Advance(t - g.clk.Now().Sub(o.start))
	repaired := 0
	for _, a := range attempts {
		conn, q := g.conns[a.fh], o.planes[a.p]
		granted := conn.Err() == nil && !conn.Repairing()
		var ports []int
		if granted {
			ports = conn.Ports()
			repaired++
		}
		if a.want != nil && (a.want.Granted != granted || !slices.Equal(a.want.Ports, ports)) {
			return fmt.Errorf("repair of %d→%d: granted %v %v, reference %v %v", a.fh.src, a.fh.dst, granted, ports, a.want.Granted, a.want.Ports)
		}
		done, err := q.fab.Attempted(a.fh, granted, ports)
		if err != nil {
			return err
		}
		if dead := conn.Err() != nil; dead != (done && !granted) {
			return fmt.Errorf("repair of %d→%d: dead %v (%v), reference ends it %v", a.fh.src, a.fh.dst, dead, conn.Err(), done && !granted)
		} else if dead {
			ended = append(ended, migrant{a.fh, a.p})
		}
	}
	var migrants []migrant
	for _, e := range ended {
		if err := g.conns[e.fh].Err(); !errors.Is(err, fabric.ErrUnroutableDegraded) && !(g.closed && errors.Is(err, fabric.ErrClosed)) {
			return fmt.Errorf("the repair of %d→%d ended with %v", e.fh.src, e.fh.dst, err)
		}
		delete(g.conns, e.fh)
		if pd := g.pending(e.fh); pd != nil && !pd.owned {
			g.fates[e.fh].stranded = true
		} else {
			migrants = append(migrants, e)
		}
	}
	// Each repair settles once: traced when repaired, its hook finished when
	// it ended.
	sum := func(ns []int) (n int) {
		for _, k := range ns {
			n += k
		}
		return n
	}
	if err := settle("the instant's repairs and their hooks", func() bool {
		g.log.mu.Lock()
		defer g.log.mu.Unlock()
		return sum(g.log.settled)-sum(m.settled) == repaired+len(ended)
	}); err != nil {
		return err
	}
	if !alone {
		g.adopt()
	}
	return g.migrated(migrants, alone, m)
}

// advance moves both clocks by d, settling each due instant on the way.
func (g *gen) advance(d time.Duration) error {
	g.last = fmt.Sprintf("advance %v", d)
	until := g.ref.now + d
	for {
		next, any := until, false
		for _, q := range g.ref.planes {
			for _, rp := range q.fab.Repairs {
				if !rp.Queued && rp.Due <= next {
					next, any = rp.Due, true
				}
			}
		}
		if !any {
			break
		}
		if err := g.instant(next); err != nil {
			return err
		}
	}
	return g.instant(until)
}

// pending is fh's unregistered Connect, nil once registered.
func (g *gen) pending(fh *Handle) *pend {
	for _, pd := range g.pend {
		if pd.fh == fh {
			return pd
		}
	}
	return nil
}

// release releases fh: nil, or the loss for a lost circuit.
func (g *gen) release(fh *Handle) error {
	g.last = fmt.Sprintf("release %d→%d", fh.src, fh.dst)
	f := g.fates[fh]
	delete(g.fates, fh)
	if i := slices.Index(g.held, fh); i >= 0 {
		g.held = slices.Delete(g.held, i, i+1)
	} else {
		g.pending(fh).released = true
	}
	g.released = append(g.released, fh)
	switch err := fh.Release(); {
	case f.lost != errors.Is(err, ErrConnLost) || !f.lost && err != nil:
		return fmt.Errorf("Release of a circuit lost=%v = %v", f.lost, err)
	case f.stranded: // its channels went back when its plane revoked it
		g.windowReleases++
	case !f.lost:
		return g.ref.planes[f.plane].fab.Release(fh)
	}
	return nil
}

// close closes the router; held handles stay releasable.
func (g *gen) close() error {
	g.last = "close"
	g.closed = true
	for _, q := range g.ref.planes {
		q.fab.Closed = true
	}
	return g.r.Close(context.Background())
}

// errNoop is what an operation returns when the sequence so far leaves it
// nothing to do.
var errNoop = errors.New("nothing to do")

// op runs the named operation, its arguments drawn from rng.
func (g *gen) op(name string, rng *rand.Rand) error {
	o, n := g.ref, g.r.Nodes()
	p := rng.Intn(len(o.planes))
	q, owned := o.planes[p], g.owned()
	switch name {
	case "connect", "admit":
		return g.connect(rng.Intn(n), rng.Intn(n), name == "admit")
	case "own": // register's SetOwner alone; its re-check has not run
		for _, pd := range g.pend {
			if !pd.owned {
				g.last = fmt.Sprintf("own %d→%d", pd.fh.src, pd.fh.dst)
				pd.c.SetOwner(pd.fh)
				pd.owned = true
				return nil
			}
		}
	case "register":
		if len(g.pend) > 0 {
			return g.register(rng.Intn(len(g.pend)))
		}
	case "release":
		if len(owned) > 0 {
			return g.release(owned[rng.Intn(len(owned))])
		}
	case "fail": // two in three fail the first hop of a route on the plane, up or down
		tree := q.fab.Tree
		if routed := g.routed(p); len(routed) > 0 && rng.Intn(3) > 0 {
			fh := routed[rng.Intn(len(routed))]
			end, dir := fh.src, faults.Up
			if rng.Intn(2) == 0 {
				end, dir = fh.dst, faults.Down
			}
			sw, _ := tree.NodeSwitch(end)
			return g.fail(p, &faults.FaultSet{Links: []faults.LinkFault{{Switch: sw, Port: q.fab.Conns[fh].Ports[0], Direction: dir}}}, false)
		}
		h := rng.Intn(tree.LinkLevels())
		return g.fail(p, &faults.FaultSet{Links: []faults.LinkFault{{Level: h, Switch: rng.Intn(tree.SwitchesAt(h)),
			Port: rng.Intn(tree.Parents()), Direction: faults.Direction(rng.Intn(3))}}}, false)
	case "kill":
		return g.kill(p)
	case "repair": // one failed link, both its channels
		if failed := q.fab.FailedChannels(); len(failed) > 0 {
			c := failed[rng.Intn(len(failed))]
			fs := &faults.FaultSet{Links: []faults.LinkFault{{Level: c.Level, Switch: c.Switch, Port: c.Port}}}
			g.last = fmt.Sprintf("repair %s %+v", q.name, fs.Links)
			want, err := q.fab.Repair(fs.Channels(q.fab.Tree))
			surf, _ := g.r.Plane(q.name)
			if got, rerr := surf.Repair(fs); err != nil || rerr != nil || got != want {
				return fmt.Errorf("Repair = %d, %v; reference repairs %d, %v", got, rerr, want, err)
			}
			return nil
		}
	case "repair-plane": // faults healed, no slow process, pristine health
		g.last = "repair-plane " + q.name
		if _, err := q.fab.Repair(q.fab.FailedChannels()); err != nil {
			return err
		}
		q.degraded, q.streak, q.health, q.breaker = false, 0, 1, bClosed
		return g.r.RepairPlane(q.name)
	case "degrade": // a slow-plane process that costs no time
		g.last = "degrade " + q.name
		dp := faults.DegradedPlane{DutyCycle: rng.Float64(), Seed: rng.Int63()}
		q.degraded = true
		return g.r.SetDegraded(q.name, dp)
	case "clear-degraded":
		g.last = "clear-degraded " + q.name
		q.degraded = false
		return g.r.ClearDegraded(q.name)
	case "advance":
		return g.advance(time.Duration(rng.Int63n(int64(300*time.Millisecond) + 1)))
	case "close":
		if !g.closed {
			return g.close()
		}
	}
	return errNoop
}

// kill kills plane p: KillPlane, every switch above level 0 failed.
func (g *gen) kill(p int) error {
	var fs faults.FaultSet
	tree := g.ref.planes[p].fab.Tree
	for lvl := 1; lvl < tree.Levels(); lvl++ {
		for sw := 0; sw < tree.SwitchesAt(lvl); sw++ {
			fs.Switches = append(fs.Switches, faults.SwitchFault{Level: lvl, Switch: sw})
		}
	}
	return g.fail(p, &fs, true)
}

// owned is every handle not released, registered first.
func (g *gen) owned() []*Handle {
	out := slices.Clone(g.held)
	for _, pd := range g.pend {
		if !pd.released {
			out = append(out, pd.fh)
		}
	}
	return out
}

// routed is every live circuit with a route on plane p.
func (g *gen) routed(p int) []*Handle {
	var out []*Handle
	for _, fh := range g.owned() {
		if f := g.fates[fh]; f.plane == p && !f.lost && !f.stranded && len(g.ref.planes[p].fab.Conns[fh].Ports) > 0 {
			out = append(out, fh)
		}
	}
	return out
}

// drive runs up to steps operations, each followed by check, then finishes:
// every pending Connect registered, the router closed, every handle
// released, the planes empty. It stops early at an operation with nothing
// to do and reports that step, -1 if none did.
func (g *gen) drive(steps int, op func() error) (noop int, err error) {
	noop = -1
	for step := 0; step < steps && noop < 0; step++ {
		err := op()
		if errors.Is(err, errNoop) {
			noop = step
			continue
		}
		if err == nil {
			err = g.check()
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

func (g *gen) finish() error {
	for len(g.pend) > 0 {
		if err := g.register(0); err != nil {
			return err
		}
		if err := g.check(); err != nil {
			return err
		}
	}
	if err := g.close(); err != nil {
		return err
	}
	for len(g.held) > 0 {
		if err := g.release(g.held[0]); err != nil {
			return err
		}
	}
	for _, fh := range g.released {
		if err := fh.Release(); !errors.Is(err, ErrReleased) {
			return fmt.Errorf("second Release of %d→%d = %v, want ErrReleased", fh.src, fh.dst, err)
		}
	}
	for _, q := range g.ref.planes {
		if len(q.fab.Conns) != 0 {
			return fmt.Errorf("plane %s: the reference still holds %d circuits", q.name, len(q.fab.Conns))
		}
	}
	return g.check()
}

// federations are the random mode's: one to four planes, every policy,
// mixed shapes over one node count, a plane of full-word rows (w = 64), blind
// planes, the streak and score rules, and fed_degraded's shape —
// four least-loaded planes, two of them with 10 % of their links failed,
// every router knob at its default.
var federations = []fedSpec{
	{name: "1plane-hash", policy: PolicyHash,
		planes: []planeSpec{{shape: [3]int{2, 4, 4}, spec: "level-wise,rollback"}}},
	{name: "2planes-hash", policy: PolicyHash,
		planes: []planeSpec{{shape: [3]int{3, 2, 2}, spec: "level-wise,rollback"}, {shape: [3]int{3, 2, 2}, spec: "level-wise", blind: true}}},
	{name: "2planes-rr", policy: PolicyRoundRobin,
		planes: []planeSpec{{shape: [3]int{2, 4, 4}, spec: "level-wise"}, {shape: [3]int{2, 4, 4}, spec: "level-wise,rollback", blind: true}}},
	{name: "3planes-least-loaded", policy: PolicyLeastLoaded,
		planes: []planeSpec{{shape: [3]int{2, 4, 4}, spec: "level-wise,rollback"},
			{shape: [3]int{2, 4, 2}, spec: "level-wise,rollback"}, {shape: [3]int{4, 2, 2}, spec: "level-wise", blind: true}}},
	{name: "3planes-random", policy: PolicyRandom,
		planes: []planeSpec{{shape: [3]int{2, 4, 4}, spec: "level-wise,rollback"}, {shape: [3]int{2, 4, 2}, spec: "level-wise,rollback", blind: true},
			{shape: [3]int{2, 4, 4}, spec: "level-wise"}}},
	{name: "4planes-mixed-hash", policy: PolicyHash,
		planes: []planeSpec{{shape: [3]int{2, 4, 4}, spec: "level-wise,rollback"}, {shape: [3]int{4, 2, 2}, spec: "backtrack,depth=2"},
			{shape: [3]int{2, 4, 64}, spec: "level-wise"}, {shape: [3]int{4, 2, 1}, spec: "level-wise,rollback"}}},
	{name: "4planes-degraded", policy: PolicyLeastLoaded, faulted: 2,
		planes: []planeSpec{{shape: [3]int{3, 4, 4}, spec: "level-wise,rollback"}, {shape: [3]int{3, 4, 4}, spec: "level-wise,rollback"},
			{shape: [3]int{3, 4, 4}, spec: "level-wise,rollback"}, {shape: [3]int{3, 4, 4}, spec: "level-wise,rollback"}}},
}

// randomOps weighs the random mode's operations; one draw in a thousand
// closes the router early, and an operation with nothing to do connects.
var randomOps = strings.Fields(strings.Repeat("connect ", 10) + strings.Repeat("admit ", 3) + "own register register " +
	strings.Repeat("release ", 8) + strings.Repeat("fail ", 6) + "repair repair kill repair-plane repair-plane " +
	"degrade clear-degraded advance advance advance")

// runRandom runs one seeded sequence of steps operations on the named
// federation.
func runRandom(name string, seed int64, steps int) (*gen, error) {
	g, err := newGen(federations[slices.IndexFunc(federations, func(fs fedSpec) bool { return fs.name == name })])
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	_, err = g.drive(steps, func() error {
		name := randomOps[rng.Intn(len(randomOps))]
		if rng.Intn(1000) == 0 {
			name = "close"
		}
		if err := g.op(name, rng); !errors.Is(err, errNoop) {
			return err
		}
		return g.op("connect", rng)
	})
	return g, err
}

// TestRouterGenerator is the random mode: 400 seeded operations on each
// federation, four seeds each. A blind plane's contention denial earns it a
// second look, so on each federation with one the second look must fire.
func TestRouterGenerator(t *testing.T) {
	for _, fs := range federations {
		var ran, looks uint64
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", fs.name, seed), func(t *testing.T) {
				g, err := runRandom(fs.name, seed, 400)
				if err != nil {
					t.Fatal(err)
				}
				ran, looks = ran+1, looks+g.ref.looks
			})
		}
		if ran == 4 && looks == 0 && slices.ContainsFunc(fs.planes, func(ps planeSpec) bool { return ps.blind }) {
			t.Errorf("%s: no walk took a second look", fs.name)
		}
	}
}

// TestRouterGeneratorTerminalWindowSeed is a seed on which the random mode
// reaches, unaided, the window between a plane retiring a circuit and the
// router picking it up: a circuit admitted, a Fail that revokes it and
// whose repair is denied before its Connect registers the owner, and the
// owner's Release inside the window. The handle must read as migrating
// there — no error, repairing, no route — and the Release must report nil.
// When a handle answered from its plane's own verdict, Err reported the
// plane's ErrUnroutableDegraded, which the migration then turned back into
// nil, and the Release returned it.
func TestRouterGeneratorTerminalWindowSeed(t *testing.T) {
	g, err := runRandom("2planes-rr", 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	if g.windowReleases == 0 {
		t.Fatal("the seed no longer releases a circuit in the window between its plane's verdict and the migration")
	}
}

// TestRouterGeneratorRegisterSeed is a seed on which the random mode
// reaches, unaided, a plane retiring a circuit between the grant and the
// register call that points it at its federated handle: the plane's hook
// finds no owner and leaves, so only register's own re-check of the
// circuit's verdict can migrate it, exactly once.
func TestRouterGeneratorRegisterSeed(t *testing.T) {
	g, err := runRandom("2planes-rr", 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	if g.windowRegisters == 0 {
		t.Fatal("the seed no longer registers a circuit its plane retired before the owner was set")
	}
}

// TestRouterRegisterWindow reaches register's re-check by a fixed sequence,
// whatever the build mode or the goroutines' timing: a split Connect admits
// 0→3, its plane is killed before register runs, and the clock runs the
// revoked circuit's repair through its last denied attempt, so the plane
// retires it while nobody owns it and its hook leaves it. The register that
// follows must find it retired and migrate it to the other plane, once.
func TestRouterRegisterWindow(t *testing.T) {
	g, err := newGen(fedSpec{name: "register-window", policy: PolicyRoundRobin, planes: []planeSpec{
		{shape: [3]int{2, 2, 2}, spec: "level-wise,rollback"}, {shape: [3]int{2, 2, 2}, spec: "level-wise,rollback"}}})
	if err != nil {
		t.Fatal(err)
	}
	steps := []func() error{
		func() error { return g.connect(0, 3, true) },
		func() error { return g.kill(g.pend[0].pi) },
		func() error { return g.advance(300 * time.Millisecond) },
		func() error { return g.register(0) },
	}
	step := -1
	if _, err := g.drive(len(steps), func() error { step++; return steps[step]() }); err != nil {
		t.Fatal(err)
	}
	if g.windowRegisters != 1 || g.ref.readmitted != 1 {
		t.Fatalf("%d registers found their circuit retired, %d circuits migrated; want 1 and 1", g.windowRegisters, g.ref.readmitted)
	}
}

// TestRouterGeneratorScoreRuleSeed is a seed on which fed_degraded's shape,
// every router knob at its default, reaches a breaker the score rule opens
// before the streak rule would: an outage sinks a plane's health, a grant
// closes its breaker, and two failures take the score under 0.15. With the
// score rule gone the router keeps that breaker closed, and the generator
// reports the divergence (EXPERIMENTS E35, E39). Of seeds 1–600, 60 is
// the first that reaches it.
func TestRouterGeneratorScoreRuleSeed(t *testing.T) {
	g, err := runRandom("4planes-degraded", 60, 400)
	if err != nil {
		t.Fatal(err)
	}
	var opens uint64
	for _, q := range g.ref.planes {
		opens += q.scoreOpens
	}
	if opens == 0 {
		t.Fatal("the seed no longer opens a breaker by the score rule before the streak rule")
	}
}

// TestRouterGeneratorExhaustive is the bounded-exhaustive mode: every
// sequence of up to three operations of its alphabet on two FT(2,2,2) planes
// under round-robin, one fault-blocked denial opening a breaker. A sequence
// whose last operation has nothing to do stops there, and the sequences
// extending it are skipped. Every sequence draws its arguments from the same
// seed, so each operation is a fixed function of the sequence so far.
func TestRouterGeneratorExhaustive(t *testing.T) {
	ops := []string{"connect", "admit", "own", "register", "release", "fail", "kill", "repair-plane", "degrade", "advance", "close"}
	fs := fedSpec{name: "exhaustive", policy: PolicyRoundRobin, planes: []planeSpec{
		{shape: [3]int{2, 2, 2}, spec: "level-wise,rollback"}, {shape: [3]int{2, 2, 2}, spec: "level-wise,rollback"}}}
	var extend func(prefix []string)
	extend = func(prefix []string) {
		for _, op := range ops {
			seq := append(prefix[:len(prefix):len(prefix)], op)
			g, err := newGen(fs)
			if err != nil {
				t.Fatal(err)
			}
			rng, step := rand.New(rand.NewSource(1)), -1
			noop, err := g.drive(len(seq), func() error { step++; return g.op(seq[step], rng) })
			if err != nil {
				t.Fatalf("sequence %v: %v", seq, err)
			}
			if noop < 0 && len(seq) < 3 {
				extend(seq)
			}
		}
	}
	extend(nil)
}
