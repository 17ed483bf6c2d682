// Package federation is the front-end router tier over N independent
// scheduling planes. Each plane is a full fabric.Manager — its own fat
// tree, link state, epoch queue, and release ring — so planes share no
// locks and scale admission throughput horizontally, the way real
// clusters scale past one fat-tree instance by running parallel planes
// (Solnushkin, PAPERS.md). The Router owns plane selection, bounded
// cross-plane failover when a plane denies or is degraded, per-plane
// health with ejection and re-admission probing — fed by faults, not by
// load — and cross-plane re-admission of connections a plane's repair
// loop gives up on.
//
// Plane selection has two parts. A pluggable Policy orders the planes
// (over the live per-plane unavailable-channel gauges, for least-loaded);
// each plane's published link rows (fabric.Surface.Routable: the paper's
// Level-wise test, run lock-free before the request queues anywhere) then
// decide which of them go first. The planes predicted to route the pair
// are tried in policy order, and everything else follows in policy order,
// so no plane the policy offers is skipped — the rows only spare a
// request the round trip to a plane that would deny it. The rows are read
// as the walk reaches each plane, and epochs free capacity while a request
// walks, so a walk no plane granted takes a second look: each plane that
// denied only for contention, breaker still closed, whose rows now route
// the pair is asked once more, in policy order (EXPERIMENTS E42).
//
// The admit path takes no router-wide lock and allocates only the
// federated Handle: candidate planes are ordered in an on-stack buffer
// (policy.go), health is a compare-and-swap EWMA (health.go), and the
// plane connection carries a back-pointer to its federated Handle
// (fabric.Conn.SetOwner) where a router-global reverse index would
// serialize every plane's grants and releases.
//
// A federated Handle wraps the granted plane's connection; Release
// routes back to the owning plane, transparently following the
// connection if a plane failure migrated it. A connection is lost only
// when every failover and re-admission avenue is exhausted, and then
// its Release reports ErrConnLost — the documented terminal error. The
// tests hold the router to a reference router (oracle_test.go) over seeded
// and exhaustive operation sequences, CheckInvariants after every one.
package federation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/fabric"
	"repro/internal/faults"
)

// Sentinel errors. ErrReleased aliases the fabric sentinel so drain
// loops need only one errors.Is check across both tiers.
var (
	// ErrClosed is returned by Connect after Close.
	ErrClosed = errors.New("federation: router closed")
	// ErrNoPlanes is returned by New for an empty plane set.
	ErrNoPlanes = errors.New("federation: no planes configured")
	// ErrConnLost is the terminal verdict for a federated connection:
	// its plane revoked it, the plane-local repair loop gave up, and
	// cross-plane re-admission found no surviving plane that could route
	// it. Release of a lost handle returns an error matching this.
	ErrConnLost = errors.New("federation: connection lost")
	// ErrReleased reports a second Release of the same handle.
	ErrReleased = fabric.ErrReleased
)

// PlaneConfig names and parameterizes one plane.
type PlaneConfig struct {
	// Name identifies the plane in stats, fault targeting, and logs.
	// Empty names default to "plane<i>".
	Name string
	// Fabric configures the plane's manager. Tree is required; all
	// planes must agree on the node count (the federated address space).
	// OnConnTerminal is reserved for the router's re-admission hook: a
	// caller-set hook is chained after it. A nil Clock takes the router's.
	Fabric fabric.Config
}

// Config parameterizes a Router. A zero knob takes its default. The
// breaker's streak length and probe spacing are constants (health.go).
type Config struct {
	// Planes are the scheduling planes, at least one.
	Planes []PlaneConfig
	// Policy orders candidate planes per admission (default PolicyHash).
	Policy Policy
	// Clock drives the breaker's probe clock and the injected plane
	// latency, and every plane whose own Clock is nil; nil means the wall
	// clock (clock.Wall).
	Clock clock.Clock
}

// plane is one scheduling plane plus its router-side health state.
type plane struct {
	name string
	surf fabric.Surface

	// grants counts circuits the router placed here (initial admissions
	// and cross-plane re-admissions) — the load-spread signal Stats
	// reports as per-plane grant counts and imbalance
	// (federation.imbalance in bench/).
	grants atomic.Uint64
	// hintMisses counts admissions this plane denied by contention after
	// its published rows (fabric.Surface.Routable) said the pair would route.
	hintMisses atomic.Uint64

	// Health (health.go): failStreak counts consecutive failures
	// (fault-blocked denials and other failover-able errors; a contention
	// denial is not one); health is the EWMA score (math.Float64bits,
	// starts at 1); breaker is the circuit-breaker state and opens counts
	// its transitions into open; lastProbe gates single-flight probe
	// election (a CAS on the timestamp elects exactly one prober per
	// interval); admitSeq numbers this plane's admissions for the injected
	// DegradedPlane duty cycle; degraded holds that process.
	failStreak atomic.Int32
	health     atomic.Uint64
	breaker    atomic.Int32
	opens      atomic.Uint64
	lastProbe  atomic.Int64 // UnixNano, on the router's clock, of the last probe election
	admitSeq   atomic.Uint64
	degraded   atomic.Pointer[faults.DegradedPlane]
}

// Router is the federation front end. Create one with New; all methods
// may be called from any goroutine.
type Router struct {
	cfg    Config
	planes []*plane
	nodes  int

	closed  atomic.Bool
	closeMu sync.Once

	rr atomic.Uint64 // round-robin admission counter

	offered, granted, rejected atomic.Uint64
	cancelled                  atomic.Uint64
	failovers                  atomic.Uint64
	readmitted, lost           atomic.Uint64
	pendingReadmits            atomic.Int64
}

// Check reports the error New(cfg) would return, building no plane: the
// dry run behind FileConfig.Validate and `ftserve -validate`.
func (cfg Config) Check() error {
	if err := cfg.resolve(); err != nil {
		return err
	}
	for _, pc := range cfg.Planes {
		if err := pc.Fabric.Check(); err != nil {
			return fmt.Errorf("federation: plane %q: %w", pc.Name, err)
		}
	}
	return nil
}

// resolve is the one statement of the router's defaults and rules, run
// by New and by Check: it fills each zero knob and plane name and refuses
// what no router can run. A plane's fabric.Config is fabric's to judge.
func (cfg *Config) resolve() error {
	if len(cfg.Planes) == 0 {
		return ErrNoPlanes
	}
	cfg.Clock = clock.Or(cfg.Clock)
	cfg.Planes = slices.Clone(cfg.Planes) // the names filled in below stay off the caller's slice
	names := make(map[string]struct{}, len(cfg.Planes))
	for i := range cfg.Planes {
		pc := &cfg.Planes[i]
		pc.Name = planeName(pc.Name, i)
		if _, dup := names[pc.Name]; dup {
			return fmt.Errorf("federation: duplicate plane name %q", pc.Name)
		}
		names[pc.Name] = struct{}{}
		if pc.Fabric.Tree == nil {
			return fmt.Errorf("federation: plane %q has no tree", pc.Name)
		}
		if n, want := pc.Fabric.Tree.Nodes(), cfg.Planes[0].Fabric.Tree.Nodes(); n != want {
			return fmt.Errorf("federation: %s serves %d nodes, previous planes serve %d — all planes must serve one address space",
				pc.Name, n, want)
		}
	}
	return nil
}

// planeName is the name plane i goes by: its own, or "plane<i>".
func planeName(name string, i int) string {
	if name == "" {
		return fmt.Sprintf("plane%d", i)
	}
	return name
}

// New validates the config, builds every plane's manager, and returns
// the router. Stop it with Close.
func New(cfg Config) (*Router, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	r := &Router{cfg: cfg, nodes: cfg.Planes[0].Fabric.Tree.Nodes()}
	for i, pc := range cfg.Planes {
		fc := pc.Fabric
		if fc.Clock == nil {
			fc.Clock = cfg.Clock
		}
		idx, user := i, fc.OnConnTerminal
		fc.OnConnTerminal = func(c fabric.Conn, cause error) {
			r.onTerminal(idx, c, cause)
			if user != nil {
				user(c, cause)
			}
		}
		m, err := fabric.New(fc)
		if err != nil {
			for _, p := range r.planes { // tear down the planes built so far
				p.surf.Close(context.Background())
			}
			return nil, fmt.Errorf("federation: plane %q: %w", pc.Name, err)
		}
		p := &plane{name: pc.Name, surf: m}
		p.health.Store(math.Float64bits(1))
		r.planes = append(r.planes, p)
	}
	return r, nil
}

// Nodes returns the federated address space size (every plane's tree
// serves the same node count).
func (r *Router) Nodes() int { return r.nodes }

// Clock returns the clock the router runs on (Config.Clock).
func (r *Router) Clock() clock.Clock { return r.cfg.Clock }

// PlaneCount returns the number of planes.
func (r *Router) PlaneCount() int { return len(r.planes) }

// PlaneNames returns the plane names in index order.
func (r *Router) PlaneNames() []string {
	names := make([]string, len(r.planes))
	for i, p := range r.planes {
		names[i] = p.name
	}
	return names
}

// Plane returns the named plane's admission surface, for per-plane
// fault targeting and stats (ftserve's /fault with a "plane" field).
func (r *Router) Plane(name string) (fabric.Surface, bool) {
	if p := r.planeByName(name); p != nil {
		return p.surf, true
	}
	return nil, false
}

func (r *Router) planeByName(name string) *plane {
	for _, p := range r.planes {
		if p.name == name {
			return p
		}
	}
	return nil
}

// candidates assembles the plane try-order for one admission: healthy
// (breaker-closed) planes ordered by the policy, then any open or
// half-open planes whose probe is due (single-flight, last resort; the
// election moves an open breaker to half-open). With every plane open
// and no probe due, all planes are candidates — a total outage degrades
// to brute-force retry rather than refusing service on a fabric that
// may have just healed. The order is built in buf, the caller's on-stack
// array, unless the federation has more than inlinePlanes planes.
func (r *Router) candidates(buf *[inlinePlanes]int, src, dst int) []int {
	n := len(r.planes)
	order := inlineSlots(buf, n)
	// One pass, one buffer: healthy planes fill from the front in index
	// order, due probes from the back.
	healthy, probes := 0, 0
	for i, p := range r.planes {
		if !p.ejectedNow() {
			order[healthy] = i
			healthy++
		} else if p.probeDue(r.cfg.Clock.Now()) {
			probes++
			order[n-probes] = i
		}
	}
	if healthy == 0 && probes == 0 {
		for i := range order {
			order[i] = i
		}
		healthy = n
	}
	r.orderPlanes(r.cfg.Policy, order[:healthy], src, dst)
	// The probes sit at the tail in reverse index order; restore it and
	// close the gap the skipped planes left.
	tail := order[n-probes:]
	slices.Reverse(tail)
	copy(order[healthy:], tail)
	return order[:healthy+probes]
}

// failoverable reports whether a plane denial should move the admission
// to the next candidate plane: scheduler denials (healthy or degraded)
// and a closed/draining plane fail over; caller-scoped errors (context
// cancellation, admission timeout) end the admission. A plane's own
// denial arrives as a bare *fabric.UnroutableError, so the type switch
// answers nearly every call without walking an error chain.
func failoverable(err error) bool {
	if _, ok := err.(*fabric.UnroutableError); ok {
		return true
	}
	return errors.Is(err, fabric.ErrUnroutable) ||
		errors.Is(err, fabric.ErrUnroutableDegraded) ||
		errors.Is(err, fabric.ErrClosed)
}

// contention reports whether a failover-able denial was the plane being
// full rather than broken: a plane's own scheduler denial (a bare
// *fabric.UnroutableError, as failoverable expects) that its faults alone
// would not have forced. It is no health sample (health.go); anything else
// failover-able is a failure.
func contention(err error) bool {
	ue, ok := err.(*fabric.UnroutableError)
	return ok && !ue.FaultBlocked
}

// Connect admits a circuit on the first candidate plane that will take
// it, planes predicted to route it first, in policy order with bounded
// failover. It returns a federated Handle, the last plane's denial when
// every candidate refused, or the caller-scoped error (ctx, admission
// timeout) that ended the attempt. Every offered admission ends counted
// once: granted, rejected (the planes' denial) or cancelled (the caller's
// error).
func (r *Router) Connect(ctx context.Context, src, dst int) (*Handle, error) {
	if r.closed.Load() {
		return nil, ErrClosed
	}
	if src < 0 || src >= r.nodes || dst < 0 || dst >= r.nodes {
		return nil, fmt.Errorf("federation: endpoints (%d, %d) outside [0, %d)", src, dst, r.nodes)
	}
	r.offered.Add(1)
	c, pi, err := r.admitConn(ctx, src, dst, -1)
	if err != nil {
		if failoverable(err) {
			r.rejected.Add(1)
		} else {
			r.cancelled.Add(1)
		}
		return nil, err
	}
	r.granted.Add(1)
	fh := &Handle{r: r, src: src, dst: dst, conn: c, plane: pi}
	r.register(c, pi, fh)
	return fh, nil
}

// register points a live connection back at its federated handle, then
// closes the grant/terminal race: a plane failure may have killed c
// after the grant but before the owner was set, in which case the
// terminal hook found no owner and gave up — re-running it now finds
// the owner and migrates. The fh.conn identity check inside onTerminal
// makes the migration exactly-once even when both the hook goroutine
// and this re-check fire. The pointer needs no removal: it dies with
// the connection.
func (r *Router) register(c fabric.Conn, pi int, fh *Handle) {
	c.SetOwner(fh)
	if cause := c.Err(); cause != nil {
		go r.onTerminal(pi, c, cause)
	}
}

// admitConn runs one policy-ordered failover admission pass,
// skipping the plane index in skip (a readmission avoids the plane that
// just lost the connection; -1 skips nothing). It returns the granted
// connection and the granting plane's index.
//
// The policy orders the planes; the planes' published rows decide which
// of them go first. The walk takes the candidates in two passes: first the
// breaker-closed planes whose Routable says yes, each asked as the walk
// reaches it, then everything the first pass passed over — planes
// predicted to deny, due probes, the all-open fallback — in the order they
// had. Every candidate is tried once. When none granted, the second look
// walks them again in policy order and asks once more each plane that was
// only full — a contention denial — whose breaker is still closed and
// whose rows route the pair now: epochs that ran while the request walked
// may have freed what it needs. No plane is asked more than twice, so
// twice the plane count bounds the walk. A one-candidate admission reads
// no view and takes no second look.
func (r *Router) admitConn(ctx context.Context, src, dst, skip int) (fabric.Conn, int, error) {
	var buf, spare [inlinePlanes]int
	order := r.candidates(&buf, src, dst)
	hint := len(order) > 1
	later := inlineSlots(&spare, len(order))[:0] // positions in order
	var lastErr error
	for i := 0; i < len(order)+len(later); i++ {
		at, predicted := i, false
		if i < len(order) {
			if order[at] == skip {
				continue
			}
			if hint {
				if p := r.planes[order[at]]; p.ejectedNow() || !p.surf.Routable(src, dst) {
					later = append(later, at)
					continue
				}
				predicted = true
			}
		} else {
			at = later[i-len(order)]
		}
		c, err := r.try(ctx, order[at], src, dst, predicted, lastErr != nil)
		if err == nil {
			return c, order[at], nil
		}
		if !failoverable(err) {
			return nil, -1, err
		}
		if !contention(err) {
			order[at] = -1 // broken or closed, not full: no second look
		}
		lastErr = err
	}
	for _, pi := range order { // the second look; a one-candidate walk has none
		if !hint || pi < 0 || pi == skip {
			continue
		}
		if p := r.planes[pi]; p.ejectedNow() || !p.surf.Routable(src, dst) {
			continue
		}
		c, err := r.try(ctx, pi, src, dst, true, true)
		if err == nil {
			return c, pi, nil
		}
		if !failoverable(err) {
			return nil, -1, err
		}
		lastErr = err
	}
	if lastErr == nil {
		// Every candidate was the skipped plane (1-plane federation).
		lastErr = fmt.Errorf("federation: no candidate plane: %w", fabric.ErrUnroutable)
	}
	return nil, -1, lastErr
}

// try asks plane pi to admit src→dst and books its verdict: a grant's
// health sample and count; a contention denial's hint miss when the rows
// predicted a grant, and the half-open probe it settles; any other
// failover-able denial's failure sample. A failover, another plane tried
// after a denial, is counted here.
func (r *Router) try(ctx context.Context, pi, src, dst int, predicted, failover bool) (fabric.Conn, error) {
	if failover {
		r.failovers.Add(1)
	}
	p := r.planes[pi]
	// Injected slow-plane process: a duty-cycle fraction of this
	// plane's admissions pay the configured latency up front.
	if dp := p.degraded.Load(); dp != nil && dp.SlowAt(p.admitSeq.Add(1)-1) {
		sleepInjected(ctx, r.cfg.Clock, time.Duration(dp.AdmitLatency))
	}
	c, err := p.surf.Admit(ctx, src, dst)
	switch {
	case err == nil:
		p.noteSuccess()
		p.grants.Add(1)
	case !failoverable(err):
	case contention(err):
		if predicted {
			p.hintMisses.Add(1) // its published rows said it would route
		}
		p.noteContention()
	default:
		p.noteFailure(r.cfg.Clock)
	}
	return c, err
}

// onTerminal is each plane's OnConnTerminal hook: the plane's repair
// loop just gave up on c for good. If a live federated handle still
// owns c, migrate the connection to a surviving plane; otherwise the
// owner already released it (or register has not run yet and will
// re-check) and there is nothing to save. Runs on the hook's own
// goroutine.
func (r *Router) onTerminal(owner int, c fabric.Conn, cause error) {
	fh, _ := c.Owner().(*Handle)
	if fh == nil {
		return
	}
	fh.mu.Lock()
	if fh.conn != c {
		fh.mu.Unlock()
		return
	}
	fh.conn = nil // the dead conn needs no Release; its plane retired it
	fh.mu.Unlock()
	if fh.released.Load() {
		return
	}
	r.pendingReadmits.Add(1)
	defer r.pendingReadmits.Add(-1)
	nc, pi, err := r.admitConn(context.Background(), fh.src, fh.dst, owner)
	if err != nil {
		fh.mu.Lock()
		if fh.released.Load() {
			// The owner tore the circuit down mid-migration: nothing was
			// lost — its channels were already returned at revocation.
			fh.mu.Unlock()
			return
		}
		fh.terminal = fmt.Errorf("%w: %d→%d revoked on plane %q (%v); re-admission failed: %v",
			ErrConnLost, fh.src, fh.dst, r.planes[owner].name, cause, err)
		fh.mu.Unlock()
		r.lost.Add(1)
		return
	}
	// Graft the new connection onto the surviving handle — unless the
	// owner released it while the readmission was in flight, in which
	// case the fresh circuit goes straight back.
	fh.mu.Lock()
	if fh.released.Load() {
		fh.mu.Unlock()
		nc.Release()
		return
	}
	fh.conn = nc
	fh.plane = pi
	fh.mu.Unlock()
	r.readmitted.Add(1)
	r.register(nc, pi, fh)
}

// KillPlane takes a whole plane out of service: it is ejected from
// candidate selection immediately, then every switch above level 0
// fails, which masks every channel, revokes every routed connection,
// and lets the plane-local repair loops conclude ErrUnroutableDegraded
// — at which point the router's terminal hook migrates each connection
// to a surviving plane. Killing a plane whose breaker is already open
// counts no second opening.
func (r *Router) KillPlane(name string) error {
	p := r.planeByName(name)
	if p == nil {
		return fmt.Errorf("federation: unknown plane %q", name)
	}
	p.eject(r.cfg.Clock.Now())
	tree := p.surf.Tree()
	var fs faults.FaultSet
	for lvl := 1; lvl < tree.Levels(); lvl++ {
		for sw := 0; sw < tree.SwitchesAt(lvl); sw++ {
			fs.Switches = append(fs.Switches, faults.SwitchFault{Level: lvl, Switch: sw})
		}
	}
	_, _, err := p.surf.Fail(&fs)
	return err
}

// RepairPlane reverses KillPlane (and any other faults or injected
// degradation on the plane): every failed channel returns to service,
// quarantines lift, the slow-plane process is removed, and the plane
// rejoins candidate selection immediately with a pristine health score.
func (r *Router) RepairPlane(name string) error {
	p := r.planeByName(name)
	if p == nil {
		return fmt.Errorf("federation: unknown plane %q", name)
	}
	p.surf.RepairAll()
	p.surf.ClearQuarantine()
	p.degraded.Store(nil)
	p.resetHealth()
	return nil
}

// Close stops admission and drains every plane concurrently: slow planes
// drain in parallel, so the wait is the slowest plane's final epoch rather
// than the sum, and a plane whose turn finds ctx done reports it. In-flight
// cross-plane readmissions fail fast once the planes refuse intake and are
// accounted as lost. Close is idempotent; held handles stay releasable
// after it returns.
func (r *Router) Close(ctx context.Context) error {
	r.closeMu.Do(func() { r.closed.Store(true) })
	errs := make([]error, len(r.planes))
	var wg sync.WaitGroup
	for i, p := range r.planes {
		wg.Add(1)
		go func(i int, p *plane) {
			defer wg.Done()
			errs[i] = p.surf.Close(ctx)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("federation: draining plane %q: %w", r.planes[i].name, err)
		}
	}
	return nil
}
