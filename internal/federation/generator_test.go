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
// No outcome reads the clock: every plane runs epochs of one request and
// gives a revoked circuit one repair attempt, so a denied repair is
// terminal; probes are an hour apart. A fault's repair epoch runs on the
// plane's timer and the router migrates what it retires on hook
// goroutines, so the generator waits for those events —
// repairs traced, hooks finished — before it looks. One circuit's migration
// is predicted; several run side by side, so the reference adopts what they
// granted and the counters and health their interleaving left.

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
	eject  int
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
	ref      *refRouter
	probes   []*probe
	log      *journal
	held     []*Handle // registered, not released
	pend     []*pend
	released []*Handle
	fates    map[*Handle]*fate
	closed   bool
	last     string // the operation in progress
	// windowReleases counts releases in the window between a plane
	// retiring a circuit and the router picking it up; windowRegisters the
	// registers that found their circuit retired and migrated it.
	windowReleases, windowRegisters int
}

// newGen builds a federation of fs and its reference.
func newGen(fs fedSpec) (*gen, error) {
	log := &journal{revoked: make([][]string, len(fs.planes)), settled: make([]int, len(fs.planes))}
	cfg := Config{Policy: fs.policy, EjectAfter: fs.eject, ProbeInterval: time.Hour}
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
			Tree: topology.MustNew(ps.shape[0], ps.shape[1], ps.shape[2]), SchedulerSpec: ps.spec, BatchSize: 1, RepairRetries: 1,
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
	g := &gen{r: r, ref: &refRouter{cfg: r.cfg}, log: log, fates: map[*Handle]*fate{}}
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
			{"Active", uint64(ps.Fabric.Active), uint64(len(q.fab.Conns))}, {"PendingRepairs", uint64(ps.Fabric.PendingRepairs), 0},
			{"FaultyChannels", uint64(ps.Fabric.FaultyChannels), uint64(len(q.fab.Failed))},
		} {
			pairs = append(pairs, pair{ps.Name + " " + c.what, c.got, c.want})
		}
		if ps.Name != q.name || ps.Breaker != q.breaker() || ps.Healthy == q.open || ps.Degraded != q.degraded ||
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
		bad := err != nil || repairing || !slices.Equal(ports, o.planes[f.plane].fab.Conns[fh].Ports)
		if f.lost {
			bad = !errors.Is(err, ErrConnLost) || repairing || len(ports) > 0
		} else if f.stranded {
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
		w := o.plan(src, dst, skip, o.candidates(src, dst, int(o.rr)+k))
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
	return g.migrated([]*Handle{fh}, f.plane, m)
}

// migrated settles the walks that migrated circuits plane lost retired. One
// walk is predicted; several ran side by side, so the reference adopts their
// grants, checks each landed off the plane that lost it, and takes the
// router's word for the counters and health their interleaving set.
func (g *gen) migrated(fhs []*Handle, lost int, m mark) error {
	o := g.ref
	for _, fh := range fhs {
		fh.mu.Lock()
		got, ports, err := fh.plane, []int(nil), fh.terminal
		if err != nil {
			got = -1
		} else {
			ports = fh.conn.Ports()
		}
		fh.mu.Unlock()
		switch {
		case len(fhs) == 1:
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
	if len(fhs) < 2 {
		return nil
	}
	r := g.r
	o.rr, o.failovers = r.rr.Load(), r.failovers.Load()
	for i, p := range r.planes {
		q := o.planes[i]
		q.hintMisses, q.opens, q.streak = p.hintMisses.Load(), p.opens.Load(), int(p.failStreak.Load())
		q.health, q.open = p.healthNow(), p.breaker.Load() == bOpen
		q.routables, q.admits = g.probes[i].routables.Load(), g.probes[i].admits.Load()
	}
	return nil
}

// fail fails fs on plane p — through Plane(name).Fail, or with kill through
// KillPlane, fs then being every switch above level 0 — and settles what it
// revoked: it waits until the plane's repair epoch and the router's hooks
// have dealt with every revocation, checks the plane revoked exactly the
// routes the reference dropped, and takes each through its fate — repaired
// in place (predicted when it was the only one), migrated, lost, or
// stranded until register migrates it.
func (g *gen) fail(p int, fs *faults.FaultSet, kill bool) error {
	q, m := g.ref.planes[p], g.mark()
	g.last = fmt.Sprintf("fail %s %+v kill %v", q.name, fs.Links, kill)
	fresh, dropped, err := q.fab.Fail(fs.Channels(q.fab.Tree))
	if err != nil {
		return err
	}
	var failed, revoked int
	if kill {
		q.eject()
		err, failed, revoked = g.r.KillPlane(q.name), fresh, len(dropped)
	} else {
		surf, _ := g.r.Plane(q.name)
		failed, revoked, err = surf.Fail(fs)
	}
	if g.closed != errors.Is(err, fabric.ErrClosed) || !g.closed && err != nil || failed != fresh || revoked != len(dropped) {
		return fmt.Errorf("Fail = (%d failed, %d revoked, %v) on a plane closed=%v, reference (%d, %d)",
			failed, revoked, err, g.closed, fresh, len(dropped))
	}
	var routes, want []string
	if err := settle("the repair epoch and its hooks", func() bool {
		g.log.mu.Lock()
		defer g.log.mu.Unlock()
		routes = slices.Clone(g.log.revoked[p][m.revoked[p]:])
		return g.log.settled[p]-m.settled[p] == len(routes)
	}); err != nil {
		return err
	}
	for _, c := range dropped {
		want = append(want, fmt.Sprint(c.Src, c.Dst, c.Ports))
	}
	sort.Strings(routes)
	if sort.Strings(want); !slices.Equal(routes, want) {
		return fmt.Errorf("plane %d revoked %v, reference drops %v", p, routes, want)
	}
	var migrants []*Handle
	for key := range dropped {
		fh := key.(*Handle)
		fh.mu.Lock()
		conn, pl := fh.conn, fh.plane
		fh.mu.Unlock()
		repaired := pl == p && conn != nil && conn.Err() == nil
		if len(dropped) == 1 {
			if w := q.fab.Try(fh.src, fh.dst); w.Granted != repaired || repaired && !slices.Equal(conn.Ports(), w.Ports) {
				return fmt.Errorf("repair of %d→%d: granted %v, reference %v %v", fh.src, fh.dst, repaired, w.Granted, w.Ports)
			}
		}
		switch pd := g.pending(fh); {
		case repaired:
			if err := q.fab.Hold(fh, fh.src, fh.dst, conn.Ports()); err != nil {
				return err
			}
		case pd != nil && !pd.owned:
			g.fates[fh].stranded = true
		default:
			migrants = append(migrants, fh)
		}
	}
	return g.migrated(migrants, p, m)
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
		var fs faults.FaultSet
		for lvl := 1; lvl < q.fab.Tree.Levels(); lvl++ {
			for sw := 0; sw < q.fab.Tree.SwitchesAt(lvl); sw++ {
				fs.Switches = append(fs.Switches, faults.SwitchFault{Level: lvl, Switch: sw})
			}
		}
		return g.fail(p, &fs, true)
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
		q.degraded, q.streak, q.health, q.open = false, 0, 1, false
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
	case "close":
		if !g.closed {
			return g.close()
		}
	}
	return errNoop
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
	{name: "1plane-hash", policy: PolicyHash, eject: 2,
		planes: []planeSpec{{shape: [3]int{2, 4, 4}, spec: "level-wise,rollback"}}},
	{name: "2planes-hash", policy: PolicyHash,
		planes: []planeSpec{{shape: [3]int{3, 2, 2}, spec: "level-wise,rollback"}, {shape: [3]int{3, 2, 2}, spec: "level-wise", blind: true}}},
	{name: "2planes-rr", policy: PolicyRoundRobin, eject: 2,
		planes: []planeSpec{{shape: [3]int{2, 4, 4}, spec: "level-wise"}, {shape: [3]int{2, 4, 4}, spec: "level-wise,rollback", blind: true}}},
	{name: "3planes-least-loaded", policy: PolicyLeastLoaded,
		planes: []planeSpec{{shape: [3]int{2, 4, 4}, spec: "level-wise,rollback"},
			{shape: [3]int{2, 4, 2}, spec: "level-wise,rollback"}, {shape: [3]int{4, 2, 2}, spec: "level-wise", blind: true}}},
	{name: "3planes-random", policy: PolicyRandom, eject: 2,
		planes: []planeSpec{{shape: [3]int{2, 4, 4}, spec: "level-wise,rollback"}, {shape: [3]int{2, 4, 2}, spec: "level-wise,rollback", blind: true},
			{shape: [3]int{2, 4, 4}, spec: "level-wise"}}},
	{name: "4planes-mixed-hash", policy: PolicyHash, eject: 2,
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
	"degrade clear-degraded")

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
// federation, four seeds each.
func TestRouterGenerator(t *testing.T) {
	for _, fs := range federations {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", fs.name, seed), func(t *testing.T) {
				if _, err := runRandom(fs.name, seed, 400); err != nil {
					t.Fatal(err)
				}
			})
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

// TestRouterGeneratorScoreRuleSeed is a seed on which fed_degraded's shape,
// every router knob at its default, reaches a breaker the score rule opens
// before the streak rule would: an outage sinks a plane's health, a grant
// closes its breaker, and two failures take the score under 0.15. With the
// score rule gone the router keeps that breaker closed, and the generator
// reports the divergence (EXPERIMENTS E35).
func TestRouterGeneratorScoreRuleSeed(t *testing.T) {
	g, err := runRandom("4planes-degraded", 23, 400)
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
	ops := []string{"connect", "admit", "own", "register", "release", "fail", "kill", "repair-plane", "degrade", "close"}
	fs := fedSpec{name: "exhaustive", policy: PolicyRoundRobin, eject: 1, planes: []planeSpec{
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
