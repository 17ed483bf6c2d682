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
// oldest request has waited Config.MaxWait, by a time.AfterFunc deadline
// armed when a batch opens with none pending; Close runs the last epoch
// on its caller.
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
// the admission queue and who runs it next; no epoch holds it while
// scheduling. The only nesting is mu before qmu. The other client paths
// take neither: Release parks the handle in a lock-free MPSC ring that
// the next epoch empties in one pass before it schedules, and
// Handle.Ports is one atomic load of an immutable route.
//
// A Handle is allocated by the Connect that will own it, before it
// queues: the pooled ticket carries a spare Handle (armTicket). The
// granting epoch fills in the endpoints, the registry slot and the route
// embedded in the Handle under mu and hands the Handle over through the
// ticket's channel; a denial leaves the spare on the ticket for its next
// use. The route pointer stays nil — which means "the embedded route" —
// until a fault revokes the connection; from then on only the repair loop
// stores it, a fresh snapshot each time, under mu.
//
// Robustness: the admission queue is bounded (Config.QueueLimit) and
// exerts backpressure by blocking Connect until a slot frees; a queued
// request leaves cleanly when its context is cancelled or the configured
// admission timeout expires; Close stops intake and drains the queue
// through a final epoch on the calling goroutine.
//
// Observability: atomic counters (offered / granted / rejected /
// cancelled / released / overflow), epoch-size and epoch-latency
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
	"math"
	"sync"
	"sync/atomic"
	"time"

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
	DefaultBatchSize     = 32
	DefaultMaxWait       = 2 * time.Millisecond
	DefaultQueueLimit    = 1024
	DefaultRepairRetries = 8
	DefaultRepairBackoff = 2 * time.Millisecond
	// DefaultReleaseRing is the capacity of the lock-free release ring: a
	// Release parks its handle there and the next mu holder retires it. A
	// full ring never blocks — the overflowing Release takes the
	// synchronous path.
	DefaultReleaseRing = 1024
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
// within Config.RepairRetries attempts. Handle.Err reports it and a
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
	// default "level-wise,rollback". Mutually exclusive with Scheduler.
	SchedulerSpec string
	// Scheduler admits each epoch against the live link state, for
	// callers that composed one programmatically; most should name an
	// engine with SchedulerSpec instead. Defaults to the Level-wise
	// scheduler with rollback. Schedulers that retain a failed request's
	// partial allocations are safe: the manager releases retained ports
	// after every epoch, since a rejected connection holds nothing.
	Scheduler core.Scheduler
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
	// spend waiting — for a queue slot and then for its epoch's verdict.
	// Zero means wait indefinitely (until ctx cancels).
	AdmitTimeout time.Duration
	// Trace, when non-nil, receives one Event per link-state mutation
	// (grant, release) and per queue drop (reject, cancel), invoked in
	// exact serialization order under the manager lock. Keep it fast; the
	// Ports slice aliases live storage (for grants, the scheduler's reused
	// ports arena) — treat it as read-only and copy it before retaining.
	Trace func(Event)
	// RepairRetries bounds how many scheduling attempts a revoked
	// connection gets before the repair is abandoned with
	// ErrUnroutableDegraded (default DefaultRepairRetries).
	RepairRetries int
	// RepairBackoff is the base delay between repair attempts; attempt k
	// (0-based) waits RepairBackoff << k before re-entering the epoch
	// queue (default DefaultRepairBackoff). The first attempt is
	// immediate: a revoked connection joins the very next epoch.
	RepairBackoff time.Duration
	// OnConnTerminal, when non-nil, is invoked (on its own goroutine,
	// no manager lock held) each time the repair loop retires a revoked
	// connection with a terminal error — retries exhausted
	// (ErrUnroutableDegraded) or shutdown mid-repair (wrapping
	// ErrClosed). It does NOT fire when the owner's own Release aborts a
	// repair: the owner asked for the teardown and already has the
	// verdict. Federation uses this hook to re-admit the dead circuit on
	// a surviving plane.
	OnConnTerminal func(c Conn, cause error)
	// RepairBudget globally rate-limits repair retries with a token
	// bucket (see gray.go): every re-enqueue after a denied repair
	// attempt draws one token, and an empty bucket defers the retry
	// until a token accrues (the retry is delayed, never dropped — and
	// the deferral does not consume a RepairRetries attempt). The first
	// attempt after a revocation is free. The zero value selects the
	// defaults (DefaultRepairBudgetRate, DefaultRepairBudgetBurst); a
	// negative Rate disables the limit. Stats.RepairBudgetExhausted
	// counts deferrals.
	RepairBudget Budget
	// FlapThreshold enables flap damping when positive: each channel's
	// down-transitions accumulate in a score that decays with half-life
	// FlapHalfLife, and a channel whose score reaches the threshold is
	// quarantined — masked like a failed channel — until
	// QuarantineProbation passes without further flapping. 0 (the
	// default) disables damping entirely; behavior is then bit-identical
	// to the clean-fault model.
	FlapThreshold float64
	// FlapHalfLife is the flap-score decay half-life (default
	// DefaultFlapHalfLife; used only when FlapThreshold > 0).
	FlapHalfLife time.Duration
	// QuarantineProbation is how long a quarantined channel stays masked
	// after its last flap (default DefaultQuarantineProbation; used only
	// when FlapThreshold > 0).
	QuarantineProbation time.Duration
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
// queue but hold no queue slot (they never displace client admissions),
// have no resp channel (nobody is blocked on them; the verdict mutates
// the handle), and are claimed by handle state rather than the CAS
// (Release of a repairing handle is their cancellation path).
type ticket struct {
	// What an epoch reads and writes under the scheduling lock comes first
	// and together: its clients fill a ticket on another CPU, so every
	// cache line of it the epoch touches is a miss paid under that lock.
	req   core.Request
	state atomic.Int32
	h     *Handle // repair tickets only
	// spare is the Handle a grant of this ticket becomes, allocated by the
	// Connect that armed the ticket (armTicket) so that the epoch, under
	// the scheduling lock, only fills it in. A grant consumes it; a denial
	// leaves it for the ticket's next use. Client tickets only.
	spare *Handle
	resp  chan result // buffered(1): the epoch's send never blocks
	enq   time.Time
}

type result struct {
	h   *Handle
	err error
}

// delivery is one verdict staged under the manager lock and sent to its
// waiting Connect call after the lock is dropped, so channel sends (and
// the goroutine wakeups they trigger) never extend the critical section.
// A grant stages its handle; a denial stages only the level it failed at
// and its cause, and its error is made by deliver, outside the lock.
type delivery struct {
	t            *ticket
	h            *Handle
	failLevel    int
	faultBlocked bool
}

// delbatch carries one epoch's staged verdicts out of the lock; the
// goroutine that ran the epoch delivers them after unlocking. Batches
// come from Manager.delPool and return there once delivered, so the next
// epoch (run by another goroutine) can stage while this one is still
// being delivered.
type delbatch struct {
	d []delivery
}

// Handle lifecycle states. A handle is born active; a fault crossing
// its route revokes it to repairing (its channels returned, a repair
// ticket queued); a successful re-admission returns it to active on a
// new route; exhausting Config.RepairRetries, manager shutdown, or the
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

	// freeSlots is the queue-slot semaphore (backpressure), kept as an
	// atomic so the uncontended Connect fast path is one CAS instead of a
	// channel round-trip. slotsCh is the coalescing wakeup for Connect
	// calls blocked on a full queue: releaseSlots posts one token after
	// adding slots, and a woken waiter re-signals while spare slots
	// remain (the cascade), so one channel op wakes any number of
	// waiters without a per-slot send.
	freeSlots atomic.Int64
	slotsCh   chan struct{} // cap 1, coalescing
	closing   chan struct{} // closed by Close: wakes backpressured Connects
	closeMu   sync.Once

	// ticketPool recycles tickets (and their buffered resp channels)
	// across Connect calls. Only a ticket whose verdict was received is
	// recycled — the receive happens-after the epoch's send, and the
	// epoch drops its references when it stages the send — so a pooled
	// ticket is never still referenced by an epoch. Cancelled tickets
	// whose CAS beat the epoch are never pooled (the epoch may still
	// hold them in a drained batch); they retire to the garbage
	// collector.
	ticketPool sync.Pool

	// delPool recycles the per-epoch verdict batches (see delbatch).
	delPool sync.Pool

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
	// their probation deadlines, budget the repair-retry token bucket.
	flap   map[faults.Channel]*flapScore
	quar   map[faults.Channel]time.Time
	budget Bucket

	// qmu guards the admission queue (pending, oldest), who runs it next
	// (closerPending, deadline, armed) and orders writes of closed against
	// enqueues, keeping Connect's critical section to an append — a few
	// pointer writes — while an epoch schedules under mu. Lock order: mu
	// before qmu, never the reverse.
	qmu     sync.Mutex
	pending []*ticket
	oldest  time.Time    // enqueue time of pending[0]
	closed  atomic.Bool  // set under qmu; loads may be lock-free
	qdepth  atomic.Int64 // len(pending); written under qmu, read lock-free
	// offered counts enqueues, under qmu. It sits here, with what every
	// enqueue already writes, and not beside the counters below: those are
	// the epochs', and a line they share with this one would be pulled away
	// from the lock holder by every arriving client.
	offered atomic.Uint64
	// closerPending is set by the enqueue that fills the batch and cleared
	// by the queue swap that takes it: one closer per fill, however far
	// repair tickets push the depth past BatchSize.
	closerPending bool
	// deadline is the MaxWait timer (onDeadline), armed whether it is
	// pending. It is armed for a batch that opens with none pending, so
	// while armed it fires no later than oldest + MaxWait.
	deadline *time.Timer
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
	// queue out under qmu and donates the drained batch back. Staged
	// verdicts live in pooled delbatches (delPool), not here — they
	// outlive the lock.
	livebuf []*ticket
	reqbuf  []core.Request
	qspare  []*ticket

	granted, rejected, cancelled atomic.Uint64
	released, overflow, epochs   atomic.Uint64
	drainRefused                 atomic.Uint64
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
	// the repair loop made (one per verdict), repairBudgetExhausted the
	// retries deferred by an empty token bucket, flapEvents every
	// down-transition damping observed, quarantineEvents quarantine
	// entries, repairedOnHeldTrunk successful repairs whose new route
	// landed on a trunk already carrying held circuits.
	repairAttempts        atomic.Uint64
	repairBudgetExhausted atomic.Uint64
	flapEvents            atomic.Uint64
	quarantineEvents      atomic.Uint64
	repairedOnHeldTrunk   atomic.Uint64

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
	dur("RepairBackoff", &cfg.RepairBackoff, DefaultRepairBackoff)
	dur("FlapHalfLife", &cfg.FlapHalfLife, DefaultFlapHalfLife)
	dur("QuarantineProbation", &cfg.QuarantineProbation, DefaultQuarantineProbation)
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
	if cfg.RepairRetries <= 0 {
		cfg.RepairRetries = DefaultRepairRetries
	}
	switch {
	case cfg.RepairBudget.Rate < 0:
		// Unlimited; a Burst alongside it is meaningless.
		if cfg.RepairBudget.Burst != 0 {
			return nil, fmt.Errorf("fabric: RepairBudget.Burst %d with negative (unlimited) Rate", cfg.RepairBudget.Burst)
		}
	case cfg.RepairBudget.Rate == 0 && cfg.RepairBudget.Burst == 0:
		cfg.RepairBudget = Budget{Rate: DefaultRepairBudgetRate, Burst: DefaultRepairBudgetBurst}
	case cfg.RepairBudget.Rate == 0:
		return nil, fmt.Errorf("fabric: RepairBudget.Burst %d without a Rate (set Rate > 0, or Rate < 0 for unlimited)", cfg.RepairBudget.Burst)
	case cfg.RepairBudget.Burst < 0:
		return nil, fmt.Errorf("fabric: negative RepairBudget.Burst %d", cfg.RepairBudget.Burst)
	case cfg.RepairBudget.Burst == 0:
		cfg.RepairBudget.Burst = int(math.Ceil(cfg.RepairBudget.Rate))
	}
	switch {
	case cfg.SchedulerSpec != "" && cfg.Scheduler != nil:
		return nil, errors.New("fabric: SchedulerSpec and Scheduler are mutually exclusive")
	case cfg.SchedulerSpec != "":
		return sched.Parse(cfg.SchedulerSpec)
	case cfg.Scheduler != nil:
		return sched.Wrap(cfg.Scheduler), nil
	default:
		return sched.Wrap(&core.LevelWise{Opts: core.Options{Rollback: true}}), nil
	}
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
		slotsCh: make(chan struct{}, 1),
		closing: make(chan struct{}),
		st:      newTrackedState(cfg.Tree),
		failed:  make(map[faults.Channel]struct{}),
		flap:    make(map[faults.Channel]*flapScore),
		quar:    make(map[faults.Channel]time.Time),
		budget:  NewBucket(cfg.RepairBudget, time.Now()),
		relRing: newReleaseRing(ringSize),
	}
	switch e := eng.Unwrap().(type) {
	case *parsched.Engine:
		m.parName = e.Name()
	case *core.LevelWise:
		m.reuseCost = e.Opts.ReuseCost
	}
	m.freeSlots.Store(int64(cfg.QueueLimit))
	m.deadline = time.AfterFunc(time.Hour, m.onDeadline)
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
// its resp channel come from the pool, the slot semaphore is one CAS,
// and the batch timestamp is taken once per epoch, not per request.
func (m *Manager) Connect(ctx context.Context, src, dst int) (*Handle, error) {
	n := m.cfg.Tree.Nodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("fabric: endpoints (%d, %d) outside [0, %d)", src, dst, n)
	}
	var deadline <-chan time.Time
	if m.cfg.AdmitTimeout > 0 {
		timer := time.NewTimer(m.cfg.AdmitTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	if err := m.acquireSlot(ctx, deadline); err != nil {
		return nil, err
	}
	t := m.getTicket(src, dst)
	ok, closer := m.enqueue(t)
	if !ok {
		// Close won the race between the slot acquire and the enqueue:
		// return the slot, recycle the ticket (no epoch ever saw it), and
		// refuse as a drain — this is shutdown, not backpressure, so it
		// counts under DrainRefused rather than Overflow.
		m.releaseSlots(1)
		m.drainRefused.Add(1)
		m.putTicket(t)
		return nil, ErrDraining
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

// acquireSlot takes one queue slot, blocking (backpressure) while the
// queue is full. A draining manager refuses with ErrDraining so callers
// can tell shutdown from a momentarily full queue. The uncontended path
// is one CAS; waiters park on the coalescing slotsCh token.
func (m *Manager) acquireSlot(ctx context.Context, deadline <-chan time.Time) error {
	for {
		if n := m.freeSlots.Load(); n > 0 {
			if m.freeSlots.CompareAndSwap(n, n-1) {
				return nil
			}
			continue // raced another acquirer; retry
		}
		select {
		case <-m.slotsCh:
			// Cascade: if the release that woke us freed more than the
			// slot we are about to claim, pass the token on so every
			// waiter the batch can serve wakes in turn.
			if m.freeSlots.Load() > 1 {
				m.signalSlots()
			}
		case <-ctx.Done():
			m.overflow.Add(1)
			return ctx.Err()
		case <-deadline:
			m.overflow.Add(1)
			return ErrAdmitTimeout
		case <-m.closing:
			m.drainRefused.Add(1)
			return ErrDraining
		}
	}
}

// releaseSlots returns n queue slots and posts one wakeup token; woken
// waiters cascade the token while spare slots remain, so a whole epoch's
// worth of slots comes back with a single channel operation.
func (m *Manager) releaseSlots(n int) {
	if n <= 0 {
		return
	}
	m.freeSlots.Add(int64(n))
	m.signalSlots()
}

// signalSlots posts the (coalescing) slot-wakeup token.
func (m *Manager) signalSlots() {
	select {
	case m.slotsCh <- struct{}{}:
	default:
	}
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

// enqueue appends the ticket to the admission queue, reporting ok=false
// if the manager is draining and closer=true when the append filled the
// batch and no earlier one had: the caller then runs the epoch
// (closeBatch). One time.Now per batch: the first ticket of an epoch
// stamps m.oldest and later tickets inherit it, so the deadline and the
// epoch-latency sample both measure from the batch start. A first ticket
// below the threshold arms the MaxWait deadline unless an earlier
// batch's is still pending — that one fires first.
func (m *Manager) enqueue(t *ticket) (ok, closer bool) {
	m.qmu.Lock()
	if m.closed.Load() {
		m.qmu.Unlock()
		return false, false
	}
	opened := len(m.pending) == 0
	if opened {
		m.oldest = time.Now()
	}
	t.enq = m.oldest
	m.pending = append(m.pending, t)
	n := len(m.pending)
	m.qdepth.Store(int64(n))
	m.offered.Add(1)
	switch {
	case n >= m.cfg.BatchSize:
		closer = !m.closerPending
		m.closerPending = true
	case opened && !m.armed:
		m.armed = true
		m.deadline.Reset(m.cfg.MaxWait)
	}
	m.qmu.Unlock()
	return true, closer
}

// closeBatch runs the epoch of the batch its caller's enqueue filled. The
// wait for mu is bounded by the pass in flight (an epoch, a Stats settle,
// a fault walk). The depth is re-checked under the lock: the deadline or
// Close may have taken the batch meanwhile, and running a fresh partial
// one early would erode batching — it has its own deadline and closer.
func (m *Manager) closeBatch() {
	m.mu.Lock()
	var b *delbatch
	if int(m.qdepth.Load()) >= m.cfg.BatchSize {
		b = m.flushLocked()
	}
	m.mu.Unlock()
	m.deliver(b)
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
		left = m.cfg.MaxWait - time.Since(m.oldest)
	}
	m.armed = left > 0
	if m.armed {
		m.deadline.Reset(left)
	}
	m.qmu.Unlock()
	var b *delbatch
	if n > 0 && left <= 0 {
		b = m.flushLocked()
	}
	m.mu.Unlock()
	m.deliver(b)
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
		m.deadline.Reset(m.cfg.MaxWait - time.Since(m.oldest))
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
	m.closeMu.Do(func() {
		m.qmu.Lock()
		m.closed.Store(true)
		m.qmu.Unlock()
		close(m.closing)
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	// One pass takes everything: Connect enqueues under qmu and repair
	// tickets under mu, both only while closed is unset, so nothing can
	// arrive behind it. An empty flush still drains the release ring.
	m.mu.Lock()
	b := m.flushLocked()
	m.mu.Unlock()
	m.deliver(b)
	m.deadline.Stop()
	return nil
}

// flushLocked runs one epoch over every queued ticket and stages the
// verdicts. Called with m.mu held; the scheduler pass happens under the
// lock — that lock is the serialization point that makes the shared
// linkstate.State safe. Parked releases retire first, so the pass can
// use the channels they free. The engine gets the manager's reusable
// Scratch, so an engine with a zero-allocation path keeps it. The
// returned batch (from delPool; nil when the flush was empty) must be
// delivered by the caller after unlocking.
func (m *Manager) flushLocked() *delbatch {
	m.drainReleasesLocked()
	if len(m.quar) > 0 { // guard: skip the clock read on the common path
		m.settleQuarantineLocked(time.Now())
	}
	// Swap the queue out under qmu: Connect keeps enqueueing into the
	// spare array while this epoch schedules under mu.
	m.qmu.Lock()
	batch := m.pending
	m.pending = m.qspare[:0]
	m.qdepth.Store(0)
	m.closerPending = false // the next fill elects its own closer
	m.qmu.Unlock()
	live, freed := m.livebuf[:0], 0
	for _, t := range batch {
		if t.h != nil {
			// Repair ticket: live while its handle still wants repairing
			// (Release of the handle is the cancellation path). It holds no
			// queue slot and nobody is waiting on a resp channel.
			if t.h.state.Load() == handleRepairing {
				live = append(live, t)
			}
			continue
		}
		freed++ // every departed client ticket frees its queue slot
		if t.state.CompareAndSwap(ticketWaiting, ticketClaimed) {
			live = append(live, t)
		} else if m.cfg.Trace != nil {
			// The canceller already counted it; record queue departure.
			m.cfg.Trace(Event{Kind: EventCancel, Src: t.req.Src, Dst: t.req.Dst, FailLevel: -1})
		}
	}
	m.releaseSlots(freed) // one atomic add + one wakeup for the whole batch
	// Ping-pong the backing arrays: the drained batch becomes the next
	// flush's spare. Tickets travel on via live and the staged
	// deliveries; clear the refs so the spare retains nothing.
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
	b, _ := m.delPool.Get().(*delbatch)
	if b == nil {
		b = &delbatch{}
	}
	dels := b.d[:0]
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
			dels = append(dels, delivery{t: t, h: h})
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
		d := delivery{t: t, failLevel: o.FailLevel}
		if m.st.FailedCount() > 0 {
			d.faultBlocked = m.st.BlockedByMask(o.Src, o.Dst)
		}
		dels = append(dels, d)
	}
	b.d = dels
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
	m.hist.epochLatMS.Record(float64(time.Since(live[0].enq)) / float64(time.Millisecond))
	m.hist.routeChurn.Record(float64(m.tornSinceEpoch + established))
	m.tornSinceEpoch = 0
	// Drop ticket references from the reused buffer; the deliveries carry
	// them the rest of the way.
	clear(live)
	m.livebuf = live[:0]
	return b
}

// deliver sends staged verdicts to their waiting Connect calls, outside
// the manager lock, making a denial's error on the way (the ticket is
// still the epoch's until the send); the buffered resp channels make every
// send non-blocking. Entries are cleared so the pooled batch does not
// retain tickets past the epoch, then the batch returns to delPool.
func (m *Manager) deliver(b *delbatch) {
	if b == nil {
		return
	}
	for i := range b.d {
		d := &b.d[i]
		r := result{h: d.h}
		if d.h == nil {
			r.err = &UnroutableError{Src: d.t.req.Src, Dst: d.t.req.Dst, FailLevel: d.failLevel, FaultBlocked: d.faultBlocked}
		}
		d.t.resp <- r
		*d = delivery{}
	}
	b.d = b.d[:0]
	m.delPool.Put(b)
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
