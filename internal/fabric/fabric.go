// Package fabric is the serving layer over the Level-wise scheduler: a
// goroutine-safe fabric manager that owns the live link state of one fat
// tree and admits long-lived connections for many concurrent clients —
// the centralized circuit-setup service the paper motivates.
//
// Connect calls do not schedule individually. They are coalesced into
// scheduling *epochs*: one scheduler pass over the live link state grants
// a whole batch atomically, so per-request admission cost amortizes to
// the paper's O(l·log_l N) hot path and the (not concurrency-safe)
// linkstate.State is only ever mutated under the manager's lock. No
// goroutine belongs to the manager: the Connect whose enqueue brings the
// queue to Config.BatchSize — the batch's closer — runs the epoch itself,
// its own ticket included; a batch that never fills is run once its
// oldest request has waited Config.MaxWait, by a deadline timer armed
// when a batch opens with none pending; Close runs the last epoch on its
// caller.
//
// The admission engine is whatever Config.SchedulerSpec names — the
// sequential Level-wise scheduler by default, or e.g.
// "parallel,mode=shard,workers=8" for the worker-goroutine engine of
// internal/parsched — and every epoch runs through it; the engine itself
// decides, from the batch it is handed, whether fanning out is worth it.
// Grant and reject notifications are staged under the lock and delivered
// after it is released by the goroutine that ran the epoch, so client
// wakeups never extend the critical section.
//
// Locking: two mutexes, one owner each. mu belongs to epochs (and the
// rare Stats, Fail and Repair walks): it owns the link state — its load
// counters included, which are plain and single-writer under it — the
// connection registry, the fault sets, the repair bookkeeping and the
// consumer side of the release ring, and the only client that ever waits
// on it is a closer. What an epoch does under it is link-state mutation
// and registry bookkeeping and nothing else: it allocates nothing for a
// grant, publishes no pointer, and records its statistics once. qmu owns
// the admission queue, its plain counts (the client tickets it holds
// against QueueLimit, offered, overflow, drain refusals) and who runs it
// next; no epoch holds it while scheduling. The only nesting is mu before
// qmu. The other client paths take neither: Release parks the handle in a
// lock-free MPSC ring that the next epoch empties in one pass before it
// schedules, and Handle.Ports is one atomic load of an immutable route.
//
// A Handle is allocated by the Connect that will own it, before it
// queues: the pooled ticket carries a spare Handle (armTicket). The
// granting epoch fills in the endpoints, the registry slot and the route
// embedded in the Handle under mu, stores the Handle on the ticket as its
// verdict and, after unlocking, sends it through the ticket's channel; a
// denial leaves the spare on the ticket for its next use. The route
// pointer stays nil — which means "the embedded route" — until a fault
// revokes the connection; from then on only the repair loop stores it, a
// fresh snapshot each time, under mu.
//
// Robustness: the admission queue is bounded (Config.QueueLimit) and
// exerts backpressure by blocking Connect until the next epoch takes the
// queue; a queued request leaves cleanly when its context is cancelled or
// the configured admission timeout expires; Close stops intake and drains
// the queue through a final epoch on the calling goroutine.
//
// Time: every time read and every timer — the MaxWait deadline, the admit
// timeout, repair backoff, flap decay and quarantine probation, the epoch
// and repair latency samples — goes through Config.Clock, the wall clock
// unless a test injects internal/clock's Fake and advances it by hand. A
// quarantine ends only when its probation timer, which its last flap
// re-armed, fires (or on ClearQuarantine): no epoch, Stats, Health or fault verb ends one,
// so on the wall clock Quarantined may list a channel for the timer's
// scheduling delay.
//
// Observability: counters (offered and overflow under qmu; granted,
// rejected, cancelled and released atomic), epoch-size and epoch-latency
// distributions built on internal/stats, and a live utilization
// snapshot, all through Stats. The optional Config.Trace hook observes
// every state mutation in serialization order.
//
// Consistency: CheckInvariants is the one statement of what a consistent
// plane is — the link rows are the replay of every active route over the
// fault mask (no channel held twice, every down-path the mirror of its
// up-path), the gauges and the published view agree with them, and every
// counter identity holds. Callers quiesce first: no Connect in flight.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/linkstate"
	"repro/internal/parsched"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Defaults used by New when the corresponding Config field is zero.
const (
	DefaultBatchSize  = 32
	DefaultMaxWait    = 2 * time.Millisecond
	DefaultQueueLimit = 1024
	// DefaultReleaseRing is the capacity of the lock-free release ring: a
	// Release parks its handle there and the next mu holder retires it. A
	// full ring never blocks — the overflowing Release takes the
	// synchronous path.
	DefaultReleaseRing = 1024
)

// The repair loop's bound and pace: a revoked connection gets RepairRetries
// scheduling attempts, the first in the next epoch and attempt k+1 (k ≥ 1)
// repairBackoff << (k-1) after attempt k is denied — 2, 4, … 128 ms, the
// last attempt 254 ms after the first — before it dies with
// ErrUnroutableDegraded.
const (
	RepairRetries = 8
	repairBackoff = 2 * time.Millisecond
)

// Sentinel errors returned by Connect and Release. Scheduler denials are
// *UnroutableError values that match ErrUnroutable under errors.Is.
var (
	ErrClosed       = errors.New("fabric: manager closed")
	ErrAdmitTimeout = errors.New("fabric: admission timed out")
	ErrReleased     = errors.New("fabric: handle already released")
	ErrUnroutable   = errors.New("fabric: unroutable")
)

// ErrDraining is returned by Connect while Close is in progress, so
// clients can tell shutdown from backpressure (a full queue blocks; a
// draining manager refuses). It wraps ErrClosed: existing
// errors.Is(err, ErrClosed) checks keep matching.
var ErrDraining = fmt.Errorf("fabric: draining (shutting down, not backpressure): %w", ErrClosed)

// ErrUnroutableDegraded is the terminal verdict of the repair loop: a
// revoked connection could not be re-admitted on the degraded fabric
// within RepairRetries attempts. Handle.Err reports it and a
// Release of the dead handle returns it.
var ErrUnroutableDegraded = errors.New("fabric: unroutable on degraded fabric")

// UnroutableError reports a scheduler denial: no conflict-free path
// existed for the request in its epoch. FailLevel is the level of the
// first unresolvable conflict (the empty Ulink AND Dlink conjunction).
// FaultBlocked gives the cause: true when the plane would deny the request
// even with every circuit released — the failed and quarantined channels
// alone block it (linkstate.State.BlockedByMask) — and false for a
// contention denial, which a release could cure.
type UnroutableError struct {
	Src, Dst     int
	FailLevel    int
	FaultBlocked bool
}

// Error renders the denial.
func (e *UnroutableError) Error() string {
	cause := ""
	if e.FaultBlocked {
		cause = ", blocked by faults"
	}
	return fmt.Sprintf("fabric: no route %d→%d (first conflict at level %d%s)", e.Src, e.Dst, e.FailLevel, cause)
}

// Is matches the ErrUnroutable sentinel.
func (e *UnroutableError) Is(target error) bool { return target == ErrUnroutable }

// Config parameterizes a Manager. A zero knob takes its default; a
// negative duration is refused.
type Config struct {
	// Tree is the fat tree being managed. Required.
	Tree *topology.Tree
	// SchedulerSpec names the admission engine in internal/sched's
	// registry grammar (e.g. "level-wise,rollback", "backtrack,depth=2",
	// "parallel,mode=racy,workers=8",
	// "level-wise,rollback,reuse-cost=4"). Empty means the
	// default "level-wise,rollback". Engines that retain a failed
	// request's partial allocations are safe: the manager releases
	// retained ports after every epoch, since a rejected connection holds
	// nothing.
	SchedulerSpec string
	// BatchSize is the epoch threshold (default DefaultBatchSize): the
	// Connect that brings the queue to it runs the epoch. 1 disables
	// batching: every request is its own epoch.
	BatchSize int
	// MaxWait bounds how long the oldest queued request waits before its
	// epoch runs regardless of size (default DefaultMaxWait): one timer
	// per manager, armed while a partial batch is queued, runs that epoch.
	MaxWait time.Duration
	// QueueLimit bounds the admission queue; Connect blocks (backpressure)
	// while the queue is full. Default DefaultQueueLimit, raised to
	// BatchSize if smaller so one full epoch always fits.
	QueueLimit int
	// AdmitTimeout, when positive, caps the total time a Connect call may
	// spend waiting — for room in the queue and then for its epoch's
	// verdict.
	// Zero means wait indefinitely (until ctx cancels).
	AdmitTimeout time.Duration
	// Clock is what every time read and timer of the manager goes
	// through; nil means the wall clock (clock.Wall).
	Clock clock.Clock
	// Trace, when non-nil, receives one Event per link-state mutation
	// (grant, release) and per queue drop (reject, cancel), invoked in
	// exact serialization order under the manager lock. Keep it fast; the
	// Ports slice aliases live storage (for grants, the scheduler's reused
	// ports arena) — treat it as read-only and copy it before retaining.
	Trace func(Event)
	// OnConnTerminal, when non-nil, is invoked (on its own goroutine,
	// no manager lock held) each time the repair loop retires a revoked
	// connection with a terminal error — retries exhausted
	// (ErrUnroutableDegraded) or shutdown mid-repair (wrapping
	// ErrClosed). It does NOT fire when the owner's own Release aborts a
	// repair: the owner asked for the teardown and already has the
	// verdict. Federation uses this hook to re-admit the dead circuit on
	// a surviving plane.
	OnConnTerminal func(c Conn, cause error)
	// FlapThreshold enables flap damping when positive: each channel's
	// down-transitions accumulate in a score that halves every second,
	// and a channel whose score reaches the threshold is quarantined —
	// masked like a failed channel — until 100ms pass without further
	// flapping (gray.go). 0 (the default) disables damping entirely;
	// behavior is then bit-identical to the clean-fault model.
	FlapThreshold float64
}

// EventKind classifies a Trace event.
type EventKind int

// Trace event kinds.
const (
	EventGrant EventKind = iota
	EventReject
	EventRelease
	EventCancel
	// EventRevoke records a fault taking down a granted connection: its
	// healthy channels returned to the fabric, the handle entering the
	// repair loop. Ports are the route it held.
	EventRevoke
	// EventRepair records a successful re-admission of a revoked
	// connection; Ports are the new route.
	EventRepair
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventGrant:
		return "grant"
	case EventReject:
		return "reject"
	case EventRelease:
		return "release"
	case EventCancel:
		return "cancel"
	case EventRevoke:
		return "revoke"
	case EventRepair:
		return "repair"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one serialized admission-engine action.
type Event struct {
	Kind     EventKind
	Src, Dst int
	// Ports are the allocated upward ports (grant and release only).
	Ports []int
	// FailLevel is the first conflict level (reject only; -1 otherwise).
	FailLevel int
	// Epoch is the 1-based epoch sequence number (grant/reject only).
	Epoch uint64
}

// ticket lifecycle states.
const (
	ticketWaiting int32 = iota
	ticketClaimed       // taken by an epoch flush; a verdict will arrive
	ticketCancelled
)

// ticket is one queued Connect call — or, when h is non-nil, one repair
// attempt for a revoked connection. Repair tickets ride the same epoch
// queue but hold no queue place (they never displace client admissions),
// have no resp channel (nobody is blocked on them; the verdict mutates
// the handle), and are claimed by handle state rather than the CAS
// (Release of a repairing handle is their cancellation path).
type ticket struct {
	// What an epoch reads and writes under the scheduling lock comes first
	// and together: its clients fill a ticket on another CPU, so every
	// cache line of it the epoch touches is a miss paid under that lock.
	req          core.Request
	state        atomic.Int32
	faultBlocked bool    // verdict: a denial's cause
	h            *Handle // repair tickets only
	// spare is the Handle a grant of this ticket becomes, allocated by the
	// Connect that armed the ticket (armTicket) so that the epoch, under
	// the scheduling lock, only fills it in. A grant consumes it; a denial
	// leaves it for the ticket's next use. Client tickets only.
	spare *Handle
	// The verdict an epoch stores under the scheduling lock and deliver
	// sends after it, so channel sends (and the goroutine wakeups they
	// trigger) never extend the critical section: the granted Handle, or
	// the level a denial failed at and its cause (faultBlocked) — the
	// denial's error is made by deliver, outside the lock. next links the
	// epoch's claimed client tickets, in batch order, into the list
	// deliver walks.
	next      *ticket
	grant     *Handle
	failLevel int
	resp      chan result // buffered(1): the epoch's send never blocks
	enq       time.Time
}

type result struct {
	h   *Handle
	err error
}

// Handle lifecycle states. A handle is born active; a fault crossing
// its route revokes it to repairing (its channels returned, a repair
// ticket queued); a successful re-admission returns it to active on a
// new route; exhausting RepairRetries, manager shutdown, or the
// owner's Release while repairing kills it. Transitions happen under
// m.mu; the atomic makes the lock-free reads (the Release fast path,
// Err, Repairing) safe; the store of handleDead publishes repair.err.
const (
	handleActive int32 = iota
	handleRepairing
	handleDead
)

// Handle is a granted connection. Release it through Manager.Release
// (or its Release method) exactly once. A fault on its route may revoke
// and transparently re-admit it (the route — Ports — changes); Err
// reports whether the connection was lost for good.
type Handle struct {
	m        *Manager
	src, dst int
	released atomic.Bool
	// state transitions only under m.mu; loads may be lock-free.
	state atomic.Int32

	// owner is the back-pointer a composing tier hangs on the connection
	// (SetOwner); the fabric never reads it.
	owner atomic.Value

	// route is the connection's current route: an immutable snapshot,
	// replaced under m.mu and never rewritten, read by Ports and the
	// mu-side walks alike (ports). Nil means granted, the grant's own route,
	// embedded so that a grant stays one allocation and publishes no
	// pointer: the granting epoch fills granted in before the handle
	// reaches its owner or the registry, and nothing writes it again. A
	// revocation publishes noRoute, a repair a new snapshot, never nil.
	route   atomic.Pointer[route]
	granted route

	// Guarded by m.mu: the handle's slot in m.conns (-1 once unregistered)
	// and the bookkeeping of its latest revocation (nil until one).
	idx    int
	repair *repairRecord
}

// route is one immutable upward-port snapshot. inline backs ports for
// routes of up to four levels; a deeper route gets its own array.
type route struct {
	ports  []int
	inline [4]int
}

// noRoute is what a repairing or dead handle holds.
var noRoute route

// set copies ports into r; call it before r is published.
func (r *route) set(ports []int) {
	if len(ports) > len(r.inline) {
		r.ports = append([]int(nil), ports...)
		return
	}
	for i, p := range ports { // at most four: cheaper than the call copy makes
		r.inline[i] = p
	}
	r.ports = r.inline[:len(ports)]
}

// Src returns the source node.
func (h *Handle) Src() int { return h.src }

// Dst returns the destination node.
func (h *Handle) Dst() int { return h.dst }

// Ports returns a copy of the upward port choices, one per level below
// the common ancestor (empty when both endpoints share a level-0 switch).
// The route changes when a fault revokes the connection and the repair
// loop re-admits it; a repairing or dead handle has no route. It takes
// no lock: a caller racing a repair sees the old route, no route or the
// new one, each whole.
func (h *Handle) Ports() []int { return append([]int(nil), h.ports()...) }

// ports is the current route itself, shared and read-only.
func (h *Handle) ports() []int {
	if r := h.route.Load(); r != nil {
		return r.ports
	}
	return h.granted.ports
}

// Err reports why the connection died: ErrUnroutableDegraded after the
// repair loop gave up, ErrClosed if the manager shut down mid-repair,
// nil while the handle is alive (active or repairing). It never takes
// the scheduling lock: the cause is written before the state store that
// announces the death.
func (h *Handle) Err() error {
	if h.state.Load() != handleDead {
		return nil
	}
	return h.repair.err // only a repairing handle dies, so repair is set
}

// SetOwner hangs the composing tier's back-pointer on the connection —
// the federation router stores its own handle here so a plane's terminal
// hook can find it without a shared index. Every call on one connection
// must pass the same concrete, non-nil type.
func (h *Handle) SetOwner(o any) { h.owner.Store(o) }

// Owner returns what SetOwner stored, nil if nothing was.
func (h *Handle) Owner() any { return h.owner.Load() }

// Repairing reports whether the handle is currently revoked and waiting
// on the repair loop.
func (h *Handle) Repairing() bool {
	return h.state.Load() == handleRepairing
}

// Release returns the connection's channels to the fabric.
func (h *Handle) Release() error { return h.m.Release(h) }

// Manager is a goroutine-safe fabric manager. Create one with New; all
// methods may be called from any goroutine.
type Manager struct {
	cfg Config
	// eng runs every epoch, through scratch, under mu. parName is the
	// engine's own name when it is a parallel engine (empty otherwise): an
	// epoch whose Result carries that name ran on the workers, anything
	// else — including the engine's own sequential fallback — counts as a
	// sequential epoch. reuseCost echoes the engine's reuse-cost cap.
	eng       sched.Engine
	parName   string
	scratch   *core.Scratch
	reuseCost int

	// ticketPool recycles tickets (and their buffered resp channels)
	// across Connect calls. Only a ticket whose verdict was received is
	// recycled — the receive happens-after the epoch's send, and deliver
	// clears the ticket's link and verdict before that send — so a pooled
	// ticket is never still referenced by an epoch. Cancelled tickets
	// whose CAS beat the epoch are never pooled (the epoch may still
	// hold them in a drained batch); they retire to the garbage
	// collector.
	ticketPool sync.Pool

	// mu is the scheduling lock: it guards st, lastEngine, conns, failed,
	// the handles' registry slots and repair records, and serializes the
	// release-ring consumer (drainReleasesLocked) and route replacement.
	// Neither the admission queue (see qmu) nor route reads are under it.
	mu         sync.Mutex
	st         *linkstate.State
	lastEngine string // scheduler that ran the most recent epoch
	// conns registers every live handle (active or repairing) so fault
	// injection can find the connections a failed component strands.
	// Each handle records its slot (Handle.idx), so unregistering is a
	// swap with the last entry.
	conns []*Handle
	// failed is the current fault set at channel granularity. The
	// linkstate fault mask is the union of failed and quar: a channel is
	// scheduled around while either set holds it.
	failed map[faults.Channel]struct{}
	// Gray-failure state (guarded by mu; see gray.go). flap holds the
	// decayed per-channel flap scores, quar the quarantined channels and
	// their probations.
	flap map[faults.Channel]*flapScore
	quar map[faults.Channel]*quarantine

	// qmu guards the admission queue (pending, oldest), its counts, the
	// backpressure wakeup (room), who runs it next (closerPending,
	// deadline, armed) and orders writes of closed against enqueues,
	// keeping Connect's critical section to an append — a few plain writes
	// — while an epoch schedules under mu. Lock order: mu before qmu,
	// never the reverse.
	qmu     sync.Mutex
	pending []*ticket
	oldest  time.Time   // enqueue time of pending[0]
	closed  atomic.Bool // set under qmu; loads may be lock-free
	// clients counts the client tickets in pending, cancelled ones
	// included, against QueueLimit; repair tickets hold no place. The
	// queue swap resets it. room is what a Connect refused by a full queue
	// waits on: the swap (or Close) closes it, waking every waiter to
	// retry, and the next waiter makes a fresh one.
	clients int
	room    chan struct{}
	// offered counts enqueues, overflow the Connects whose wait for room
	// ended first, drainRefused the Connects Close refused. They sit here,
	// under qmu, with what every enqueue already writes, and not beside the
	// counters below: those are the epochs', and a line they share with
	// these would be pulled away from the lock holder by every arriving
	// client.
	offered, overflow, drainRefused uint64
	// closerPending is set by the enqueue that fills the batch and cleared
	// by the queue swap that takes it: one closer per fill, however far
	// repair tickets push the depth past BatchSize.
	closerPending bool
	// deadline is the MaxWait timer (onDeadline), armed whether it is
	// pending. It is armed for a batch that opens with none pending, so
	// while armed it fires no later than oldest + MaxWait.
	deadline clock.Timer
	armed    bool

	// relRing parks fast-path releases until a mu holder drains them
	// (epoch flush, Stats, Fail, or a synchronous Release) through relbuf
	// (guarded by mu).
	relRing *releaseRing
	relbuf  []*Handle

	// tornSinceEpoch (guarded by mu) accumulates routes torn down since
	// the last scheduling epoch and feeds the per-epoch route-churn sample.
	tornSinceEpoch int

	// Epoch scratch buffers (guarded by mu), reused across flushes so
	// steady-state epochs allocate nothing (a grant's Handle is its
	// ticket's spare, a denial's error is made at delivery). qspare
	// ping-pongs with pending's backing array: each flush swaps the
	// queue out under qmu and donates the drained batch back. Verdicts
	// ride their tickets (ticket.next), not a buffer here — they outlive
	// the lock.
	livebuf []*ticket
	reqbuf  []core.Request
	qspare  []*ticket

	granted, rejected, cancelled atomic.Uint64
	released, epochs             atomic.Uint64
	seqEpochs, parEpochs         atomic.Uint64
	active                       atomic.Int64

	// Repair-loop counters: every revocation ends in exactly one of
	// repaired, repairFailed (retries exhausted), or repairAborted
	// (shutdown or owner release mid-repair); pendingRepairs tracks the
	// in-flight difference.
	revoked, repaired           atomic.Uint64
	repairFailed, repairAborted atomic.Uint64
	pendingRepairs              atomic.Int64

	// Gray-failure counters: repairAttempts counts scheduling attempts
	// the repair loop made (one per verdict), flapEvents every
	// down-transition damping observed, quarantineEvents quarantine
	// entries, repairedOnHeldTrunk successful repairs whose new route
	// landed on a trunk already carrying held circuits.
	repairAttempts      atomic.Uint64
	flapEvents          atomic.Uint64
	quarantineEvents    atomic.Uint64
	repairedOnHeldTrunk atomic.Uint64

	// Route-churn counters: tornRoutes counts routes torn down (release or
	// revoke with held channels), establishedRoutes counts routes set up
	// (grants and repairs with held channels). Their per-epoch sum is the
	// reconfiguration-cost signal the reuse-cost port score shrinks.
	tornRoutes        atomic.Uint64
	establishedRoutes atomic.Uint64

	// hist (guarded by mu) is what Stats' distributions are made of. An
	// epoch records into it with plain stores, once, before it lets go of mu.
	hist histograms

	// view is the published copy of the link rows (view.go): nil until the
	// first Routable call, stored once under mu, read lock-free.
	view atomic.Pointer[view]
}

// histograms are the manager's five recent-sample histograms: per epoch the
// tickets it scheduled, the wait of its oldest in milliseconds, and the
// routes torn down since the previous epoch plus the routes this one
// established; per successful repair the revoke-to-readmission time in
// milliseconds and the scheduling attempts it took.
type histograms struct {
	epochSize, epochLatMS, routeChurn stats.Recent
	repairLatMS, repairDepth          stats.Recent
}

// New validates the config and applies defaults. It starts no goroutine
// (epochs run on their closers and the MaxWait timer); end it with Close.
func New(cfg Config) (*Manager, error) { return newManager(cfg, DefaultReleaseRing) }

// Check reports the error New(cfg) would return, building nothing but the
// engine: the dry run behind a config file's validation.
func (cfg Config) Check() error {
	_, err := cfg.resolve()
	return err
}

// resolve is the one statement of Config's defaults and rules, run by New
// and by Check: it fills each zero knob, refuses what no manager can run,
// and builds the admission engine.
func (cfg *Config) resolve() (sched.Engine, error) {
	if cfg.Tree == nil {
		return nil, errors.New("fabric: nil tree")
	}
	// dur states one duration knob: negative is refused, zero takes def.
	var err error
	dur := func(name string, d *time.Duration, def time.Duration) {
		if *d < 0 && err == nil {
			err = fmt.Errorf("fabric: negative %s %s", name, *d)
		} else if *d == 0 {
			*d = def
		}
	}
	dur("MaxWait", &cfg.MaxWait, DefaultMaxWait)
	dur("AdmitTimeout", &cfg.AdmitTimeout, 0)
	if err != nil {
		return nil, err
	}
	if cfg.FlapThreshold < 0 {
		return nil, fmt.Errorf("fabric: negative FlapThreshold %v", cfg.FlapThreshold)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = DefaultQueueLimit
	}
	if cfg.QueueLimit < cfg.BatchSize {
		cfg.QueueLimit = cfg.BatchSize
	}
	cfg.Clock = clock.Or(cfg.Clock)
	if cfg.SchedulerSpec != "" {
		return sched.Parse(cfg.SchedulerSpec)
	}
	return sched.Wrap(&core.LevelWise{Opts: core.Options{Rollback: true}}), nil
}

// newManager is New with the release-ring capacity exposed, for the
// in-package test that needs a ring small enough to overflow.
func newManager(cfg Config, ringSize int) (*Manager, error) {
	eng, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:     cfg,
		eng:     eng,
		scratch: core.NewScratch(),
		st:      newTrackedState(cfg.Tree),
		failed:  make(map[faults.Channel]struct{}),
		flap:    make(map[faults.Channel]*flapScore),
		quar:    make(map[faults.Channel]*quarantine),
		relRing: newReleaseRing(ringSize),
	}
	switch e := eng.Unwrap().(type) {
	case *parsched.Engine:
		m.parName = e.Name()
	case *core.LevelWise:
		m.reuseCost = e.Opts.ReuseCost
	}
	m.deadline = cfg.Clock.AfterFunc(time.Hour, m.onDeadline)
	m.deadline.Stop() // created unarmed; enqueue and poke arm it
	return m, nil
}

// Connect requests a circuit from src to dst. It blocks until the
// request's epoch is scheduled and returns either a Handle or an error:
// a *UnroutableError (matching ErrUnroutable) when no conflict-free path
// existed, ctx.Err() when the context cancels first, ErrAdmitTimeout
// when Config.AdmitTimeout expires first, or ErrClosed after Close.
//
// The enqueue half is allocation-free at steady state: the ticket and
// its resp channel come from the pool, the queue place is a plain count
// under qmu, and the batch timestamp is taken once per epoch, not per
// request.
func (m *Manager) Connect(ctx context.Context, src, dst int) (*Handle, error) {
	n := m.cfg.Tree.Nodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("fabric: endpoints (%d, %d) outside [0, %d)", src, dst, n)
	}
	var deadline <-chan struct{}
	if m.cfg.AdmitTimeout > 0 {
		expired := make(chan struct{})
		timer := m.cfg.Clock.AfterFunc(m.cfg.AdmitTimeout, func() { close(expired) })
		defer timer.Stop()
		deadline = expired
	}
	t := m.getTicket(src, dst)
	closer, err := m.enqueue(ctx, deadline, t)
	if err != nil {
		m.putTicket(t) // refused: no epoch ever saw it
		return nil, err
	}
	if closer {
		m.closeBatch()
	}

	if deadline == nil && ctx.Done() == nil {
		// Nothing can end the wait but the verdict.
		r := <-t.resp
		m.putTicket(t)
		return r.h, r.err
	}
	var cause error
	select {
	case r := <-t.resp:
		m.putTicket(t)
		return r.h, r.err
	case <-ctx.Done():
		cause = ctx.Err()
	case <-deadline:
		cause = ErrAdmitTimeout
	}
	if t.state.CompareAndSwap(ticketWaiting, ticketCancelled) {
		// The epoch will drop this ticket when it sees the CAS; it must
		// NOT be pooled — a drained batch may still hold it.
		m.cancelled.Add(1)
		return nil, cause
	}
	r := <-t.resp // an epoch already claimed the ticket; honor its verdict
	m.putTicket(t)
	return r.h, r.err
}

// getTicket returns a pooled (or fresh) client ticket, armed for src→dst
// with its buffered resp channel ready.
func (m *Manager) getTicket(src, dst int) *ticket {
	t, _ := m.ticketPool.Get().(*ticket)
	if t == nil {
		t = &ticket{resp: make(chan result, 1)}
	}
	m.armTicket(t, src, dst)
	return t
}

// armTicket readies a client ticket for one trip through the queue: the
// request, the waiting state, and a spare Handle for the epoch to grant
// into. This is where a grant's one allocation happens — on the client's
// goroutine, before it queues — and only when the ticket's previous trip
// consumed the last spare.
func (m *Manager) armTicket(t *ticket, src, dst int) {
	t.req = core.Request{Src: src, Dst: dst}
	t.state.Store(ticketWaiting)
	if t.spare == nil {
		t.spare = &Handle{m: m}
	}
}

// putTicket recycles a ticket whose verdict was received (or that never
// entered the queue), with its spare Handle if the verdict left one. The
// caller must be past the resp receive — that receive happens-after the
// epoch's send, which is the last epoch-side touch — so the pool never
// holds a ticket an epoch still references.
func (m *Manager) putTicket(t *ticket) {
	t.req = core.Request{}
	m.ticketPool.Put(t)
}

// enqueue appends the ticket to the admission queue, reporting
// closer=true when the append filled the batch and no earlier one had:
// the caller then runs the epoch (closeBatch). A queue holding QueueLimit
// client tickets exerts backpressure: the call waits on room until the
// next queue swap, counting an Overflow and returning ctx.Err() or
// ErrAdmitTimeout if ctx or deadline ends the wait first. A closing
// manager refuses with ErrDraining, counted under DrainRefused, so
// callers can tell shutdown from a momentarily full queue. A refused
// ticket never entered the queue. One clock read per batch: the first
// ticket of an epoch stamps m.oldest and later tickets inherit it, so the
// deadline and the epoch-latency sample both measure from the batch
// start. A first ticket below the threshold arms the MaxWait deadline
// unless an earlier batch's is still pending — that one fires first.
func (m *Manager) enqueue(ctx context.Context, deadline <-chan struct{}, t *ticket) (closer bool, err error) {
	m.qmu.Lock()
	for m.clients >= m.cfg.QueueLimit && !m.closed.Load() {
		if m.room == nil {
			m.room = make(chan struct{})
		}
		room := m.room
		m.qmu.Unlock()
		select {
		case <-room:
			m.qmu.Lock()
			continue
		case <-ctx.Done():
			err = ctx.Err()
		case <-deadline:
			err = ErrAdmitTimeout
		}
		m.qmu.Lock()
		m.overflow++
		m.qmu.Unlock()
		return false, err
	}
	if m.closed.Load() {
		m.drainRefused++
		m.qmu.Unlock()
		return false, ErrDraining
	}
	opened := len(m.pending) == 0
	if opened {
		m.oldest = m.cfg.Clock.Now()
	}
	t.enq = m.oldest
	m.pending = append(m.pending, t)
	m.clients++
	m.offered++
	switch {
	case len(m.pending) >= m.cfg.BatchSize:
		closer = !m.closerPending
		m.closerPending = true
	case opened && !m.armed:
		m.armed = true
		m.deadline.Reset(m.cfg.MaxWait)
	}
	m.qmu.Unlock()
	return closer, nil
}

// wakeLocked wakes every Connect waiting for room. Caller holds m.qmu.
func (m *Manager) wakeLocked() {
	if m.room != nil {
		close(m.room)
		m.room = nil
	}
}

// closeBatch runs the epoch of the batch its caller's enqueue filled. The
// wait for mu is bounded by the pass in flight (an epoch, a Stats drain,
// a fault walk). The depth is re-checked under the lock: the deadline or
// Close may have taken the batch meanwhile, and running a fresh partial
// one early would erode batching — it has its own deadline and closer.
func (m *Manager) closeBatch() {
	m.mu.Lock()
	m.qmu.Lock()
	full := len(m.pending) >= m.cfg.BatchSize
	m.qmu.Unlock()
	var verdicts *ticket
	if full {
		verdicts = m.flushLocked()
	}
	m.mu.Unlock()
	deliver(verdicts)
}

// onDeadline is the MaxWait timer's continuation: it runs the epoch of a
// batch that is full, aged out or being drained, re-arms for the rest of
// a younger batch's wait, and otherwise lapses until a batch opens.
func (m *Manager) onDeadline() {
	m.mu.Lock()
	m.qmu.Lock()
	n := len(m.pending)
	var left time.Duration
	if n > 0 && n < m.cfg.BatchSize && !m.closed.Load() {
		left = m.cfg.MaxWait - m.cfg.Clock.Now().Sub(m.oldest)
	}
	m.armed = left > 0
	if m.armed {
		m.deadline.Reset(left)
	}
	m.qmu.Unlock()
	var verdicts *ticket
	if n > 0 && left <= 0 {
		verdicts = m.flushLocked()
	}
	m.mu.Unlock()
	deliver(verdicts)
}

// poke covers a queue that changed behind Connect's back (repair tickets
// appended, capacity returned): a full one nobody is closing gets the
// deadline now — on the timer's goroutine, so Fail returns before the
// epoch it provokes — and a partial one gets it armed.
func (m *Manager) poke() {
	m.qmu.Lock()
	switch n := len(m.pending); {
	case n == 0 || m.closerPending: // nothing to run, or its closer is on the way
	case n >= m.cfg.BatchSize:
		m.armed = true
		m.deadline.Reset(0)
	case !m.armed:
		m.armed = true
		m.deadline.Reset(m.cfg.MaxWait - m.cfg.Clock.Now().Sub(m.oldest))
	}
	m.qmu.Unlock()
}

// Release returns a granted connection's channels to the fabric. It is
// idempotent-unsafe by design: a second Release of the same handle
// returns ErrReleased without touching the state. Release keeps working
// after Close so clients can drain held circuits during shutdown.
//
// The common case never takes the manager lock: the handle parks in the
// lock-free release ring and the next epoch retires it before it
// schedules, so its channels are back in service for that very pass.
// Observable state (Stats, link utilization) reflects a parked release
// no later than the next epoch or Stats call, whichever drains first.
//
// Releasing a handle the repair loop is re-admitting cancels the repair
// (its channels were already returned at revocation) and returns nil;
// releasing a handle the repair loop already gave up on returns the
// terminal cause (matching ErrUnroutableDegraded or ErrClosed), so a
// drain loop learns which connections the faults took down.
func (m *Manager) Release(h *Handle) error {
	if h == nil {
		return errors.New("fabric: nil handle")
	}
	if h.m != m {
		return errors.New("fabric: handle belongs to a different manager")
	}
	if !h.released.CompareAndSwap(false, true) {
		return ErrReleased
	}
	// Fast path: an active handle on a running manager parks in the ring
	// — two atomic loads and one CAS. Everything else goes synchronous:
	// repairing and dead handles need their verdict now, a closed
	// manager has no epoch left to drain for it, and a full ring
	// degrades to the lock rather than blocking.
	if h.state.Load() == handleActive && !m.closed.Load() && m.relRing.push(h) {
		return nil
	}
	return m.releaseSlow(h)
}

// releaseSlow is the synchronous Release path: its channels are back in
// service when it returns (clients drain through this path after Close,
// when no epoch is left). It drains the ring first so releases retire
// in roughly the order their owners issued them.
func (m *Manager) releaseSlow(h *Handle) error {
	m.mu.Lock()
	m.drainReleasesLocked()
	var one releaseTally
	m.finishReleaseLocked(h, &one)
	m.publishReleasesLocked(one)
	m.mu.Unlock()
	return h.Err() // non-nil if the repair loop had already retired it: why
}

// releaseTally counts what a pass of releases retired: the shared
// counters take one atomic add per pass (under m.mu), not one per handle.
type releaseTally struct{ released, torn int }

func (m *Manager) publishReleasesLocked(n releaseTally) {
	if n.released == 0 {
		return // a torn route is a released one, so nothing was counted
	}
	m.released.Add(uint64(n.released))
	m.active.Add(-int64(n.released))
	if n.torn > 0 {
		m.tornRoutes.Add(uint64(n.torn))
		m.tornSinceEpoch += n.torn
	}
}

// drainReleasesLocked retires every handle parked in the release ring.
// Caller holds m.mu — the mutex is what makes this the ring's single
// consumer. Epochs drain before scheduling, so channels freed by the
// fast path are available to the pass that follows.
func (m *Manager) drainReleasesLocked() {
	parked := m.relRing.drain(m.relbuf[:0])
	if len(parked) == 0 {
		return
	}
	var n releaseTally
	for _, h := range parked {
		m.finishReleaseLocked(h, &n)
	}
	m.publishReleasesLocked(n)
	clear(parked) // the buffer is reused; it must not keep retired handles alive
	m.relbuf = parked
}

// finishReleaseLocked performs the bookkeeping half of a Release under
// m.mu: return the route's channels, unregister the handle, trace, and
// count into n. The handle state is re-read here because a fault may
// have revoked the connection between the owner's Release and this drain
// — its channels were already returned at revocation, so the queued
// repair is aborted instead (dropping the handle from conns starves the
// repair ticket and any pending backoff timer, which is the
// cancellation). A handle already dead was fully retired by the repair
// loop and holds nothing.
func (m *Manager) finishReleaseLocked(h *Handle, n *releaseTally) {
	switch h.state.Load() {
	case handleRepairing:
		h.state.Store(handleDead)
		m.dropConnLocked(h)
		m.pendingRepairs.Add(-1)
		m.repairAborted.Add(1)
		return
	case handleDead:
		return
	}
	ports := h.ports()
	m.releaseRouteLocked(h, ports)
	if len(ports) > 0 {
		n.torn++
	}
	m.dropConnLocked(h)
	if m.cfg.Trace != nil {
		m.cfg.Trace(Event{Kind: EventRelease, Src: h.src, Dst: h.dst, Ports: ports, FailLevel: -1})
	}
	n.released++
}

// dropConnLocked unregisters a handle: the last registered handle takes
// its slot. Caller holds m.mu.
func (m *Manager) dropConnLocked(h *Handle) {
	last := len(m.conns) - 1
	moved := m.conns[last]
	m.conns[h.idx] = moved
	moved.idx = h.idx
	m.conns[last] = nil
	m.conns = m.conns[:last]
	h.idx = -1
}

// releaseRouteLocked returns an active handle's channels to the fabric.
// An active route never names a masked channel — Fail revokes every one
// that crosses a channel it masks, and nothing is granted across a mask —
// so the whole path releases in one call whatever the fault state. A
// failure here is an accounting invariant violation, not a runtime
// condition.
func (m *Manager) releaseRouteLocked(h *Handle, ports []int) {
	if err := m.st.ReleasePath(h.src, h.dst, ports); err != nil {
		panic(fmt.Sprintf("fabric: release invariant violation: %v", err))
	}
	m.publishRouteLocked(h.src, h.dst, ports)
}

// Close stops admission and drains queued requests through a final epoch
// on the calling goroutine; ctx is checked before that pass, and one in
// flight is waited for, not interrupted. Held handles stay valid and
// releasable after Close. Close is idempotent.
func (m *Manager) Close(ctx context.Context) error {
	m.qmu.Lock()
	m.closed.Store(true)
	m.wakeLocked() // waiters for room retry and find the manager closed
	m.qmu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	// One pass takes everything: Connect enqueues under qmu and repair
	// tickets under mu, both only while closed is unset, so nothing can
	// arrive behind it. An empty flush still drains the release ring.
	m.mu.Lock()
	verdicts := m.flushLocked()
	m.mu.Unlock()
	deliver(verdicts)
	m.deadline.Stop()
	return nil
}

// flushLocked runs one epoch over every queued ticket and stores each
// client ticket's verdict on it. Called with m.mu held; the scheduler pass
// happens under the lock — that lock is the serialization point that
// makes the shared linkstate.State safe. Parked releases retire first, so
// the pass can use the channels they free. The engine gets the manager's
// reusable Scratch, so an engine with a zero-allocation path keeps it. The
// returned list of verdicts (nil when no client ticket was claimed) must
// be delivered by the caller after unlocking.
func (m *Manager) flushLocked() *ticket {
	m.drainReleasesLocked()
	// Swap the queue out under qmu: Connect keeps enqueueing into the
	// spare array while this epoch schedules under mu. Every client ticket
	// leaves with the swap, so the queue has room for QueueLimit again.
	m.qmu.Lock()
	batch := m.pending
	m.pending = m.qspare[:0]
	m.clients = 0
	m.closerPending = false // the next fill elects its own closer
	m.wakeLocked()
	m.qmu.Unlock()
	live := m.livebuf[:0]
	for _, t := range batch {
		if t.h != nil {
			// Repair ticket: live while its handle still wants repairing
			// (Release of the handle is the cancellation path). It holds no
			// queue place and nobody is waiting on a resp channel.
			if t.h.state.Load() == handleRepairing {
				live = append(live, t)
			}
			continue
		}
		if t.state.CompareAndSwap(ticketWaiting, ticketClaimed) {
			live = append(live, t)
		} else if m.cfg.Trace != nil {
			// The canceller already counted it; record queue departure.
			m.cfg.Trace(Event{Kind: EventCancel, Src: t.req.Src, Dst: t.req.Dst, FailLevel: -1})
		}
	}
	// Ping-pong the backing arrays: the drained batch becomes the next
	// flush's spare. Tickets travel on via live and the verdict list;
	// clear the refs so the spare retains nothing.
	clear(batch)
	m.qspare = batch[:0]
	m.livebuf = live
	if len(live) == 0 {
		// Nothing to schedule — every ticket was cancelled. The epoch
		// histograms and the epoch counter must NOT record this flush: an
		// empty pass is not a scheduling epoch, and counting it would drag
		// EpochSize/EpochLatencyMS toward zero.
		return nil
	}
	reqs := m.reqbuf[:0]
	for _, t := range live {
		reqs = append(reqs, t.req)
	}
	m.reqbuf = reqs

	res := m.eng.ScheduleInto(m.st, reqs, m.scratch)
	m.lastEngine = res.Scheduler
	if m.parName != "" && res.Scheduler == m.parName {
		m.parEpochs.Add(1)
	} else {
		m.seqEpochs.Add(1)
	}

	epoch := m.epochs.Add(1)
	// Counted in locals and published once per pass, not once per verdict.
	established, granted, rejected := 0, 0, 0
	// verdicts heads the list of claimed client tickets, linked in batch
	// order through ticket.next; link is where the next one goes.
	var verdicts *ticket
	link := &verdicts
	v := m.view.Load()
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if o.Granted && len(o.Ports) > 0 {
			established++ // new grants and repairs that hold channels
			if v != nil {
				v.route(m.st, o.Src, o.Dst, o.Ports)
			}
		}
		t := live[i]
		if t.h != nil {
			m.repairVerdictLocked(t, o, epoch)
			continue
		}
		if o.Granted {
			// The grant becomes the ticket's spare Handle (see armTicket):
			// nothing is allocated here. The outcome's Ports alias the
			// scheduler's reusable arena; the Handle owns its ports for the
			// connection's lifetime, so copy — into the handle itself when
			// the route fits.
			h := t.spare
			t.spare = nil
			h.src, h.dst, h.idx = o.Src, o.Dst, len(m.conns)
			h.granted.set(o.Ports)
			m.conns = append(m.conns, h)
			granted++
			if m.cfg.Trace != nil {
				m.cfg.Trace(Event{Kind: EventGrant, Src: o.Src, Dst: o.Dst, Ports: o.Ports, FailLevel: -1, Epoch: epoch})
			}
			t.grant = h
			*link, link = t, &t.next
			continue
		}
		// A scheduler without rollback retains a failed request's partial
		// allocations in the outcome; a rejected connection holds nothing,
		// so return those channels before anyone else schedules.
		if len(o.Ports) > 0 {
			m.releaseRetainedLocked(o)
		}
		rejected++
		if m.cfg.Trace != nil {
			m.cfg.Trace(Event{Kind: EventReject, Src: o.Src, Dst: o.Dst, FailLevel: o.FailLevel, Epoch: epoch})
		}
		// The cause is read off the mask, on denials only and only while
		// something is masked: a fault-free plane pays one load here.
		t.failLevel = o.FailLevel
		t.faultBlocked = m.st.FailedCount() > 0 && m.st.BlockedByMask(o.Src, o.Dst)
		*link, link = t, &t.next
	}
	// A shared counter this pass did not move is not touched (an all-grant
	// epoch skips rejected, an all-denial one the other three).
	if granted > 0 {
		m.granted.Add(uint64(granted))
		m.active.Add(int64(granted))
	}
	if rejected > 0 {
		m.rejected.Add(uint64(rejected))
	}
	if established > 0 {
		m.establishedRoutes.Add(uint64(established))
	}
	// A scheduling epoch records once, here. Its churn is the routes torn
	// down since the last one (releases, revocations) plus the routes this
	// pass established — the reconfiguration cost a reuse-cost engine
	// minimizes.
	m.hist.epochSize.Record(float64(len(live)))
	m.hist.epochLatMS.Record(float64(m.cfg.Clock.Now().Sub(live[0].enq)) / float64(time.Millisecond))
	m.hist.routeChurn.Record(float64(m.tornSinceEpoch + established))
	m.tornSinceEpoch = 0
	// Drop ticket references from the reused buffer; the verdict list
	// carries them the rest of the way.
	clear(live)
	m.livebuf = live[:0]
	return verdicts
}

// deliver sends an epoch's verdicts, the list flushLocked returned, to
// their waiting Connect calls in batch order, outside the manager lock,
// making a denial's error on the way; the buffered resp channels make
// every send non-blocking. Each ticket's link is read and its verdict
// cleared before its send: the receiver recycles the ticket as soon as it
// has the verdict.
func deliver(t *ticket) {
	for t != nil {
		next, r := t.next, result{h: t.grant}
		if r.h == nil {
			r.err = &UnroutableError{Src: t.req.Src, Dst: t.req.Dst, FailLevel: t.failLevel, FaultBlocked: t.faultBlocked}
		}
		t.next, t.grant = nil, nil
		t.resp <- r
		t = next
	}
}

// newTrackedState builds the plane's link state with load tracking on:
// epochs pay a plain add per channel claimed and one atomic add per pass
// to keep the per-channel cumulative counters (read by Stats, under mu)
// and the O(1) occupancy gauge (read by Unavailable, and so by
// federation's least-loaded policy, with no lock at all) current.
func newTrackedState(tree *topology.Tree) *linkstate.State {
	st := linkstate.New(tree)
	st.TrackLoad()
	return st
}

// releaseRetainedLocked drops the partial allocations of a rejected
// request, which a no-rollback scheduler leaves in its outcome: a rejected
// connection holds nothing.
func (m *Manager) releaseRetainedLocked(o *core.Outcome) {
	core.ReleaseRoute(m.st, o.Src, o.Dst, o.Ports, nil)
	m.publishRouteLocked(o.Src, o.Dst, o.Ports)
	o.Ports = o.Ports[:0]
}
