package fabric

// The plane-agnostic admission surface. A federation (internal/federation)
// composes N independent planes, each a full *Manager; these interfaces
// are the seam it composes against, extracted so the router tier depends
// on "something that admits circuits against one fat tree" rather than on
// the Manager concrete type. Go's lack of covariant returns means
// Connect's (*Handle, error) signature cannot satisfy a
// (Conn, error)-returning interface method directly, so Manager carries a
// thin Admit adapter; everything else is satisfied by existing methods.

import (
	"context"

	"repro/internal/faults"
	"repro/internal/topology"
)

// Conn is one granted circuit, abstracted from the owning plane. A
// *Handle satisfies it; federated handles wrap one and route Release
// back to the plane that granted it.
type Conn interface {
	// Src and Dst are the circuit's endpoints.
	Src() int
	Dst() int
	// Ports is a copy of the upward port choices, one per level below
	// the common ancestor (see Handle.Ports).
	Ports() []int
	// Release returns the circuit's channels to its plane, exactly once.
	Release() error
	// Err reports why the circuit died (terminal repair verdict), nil
	// while it is alive.
	Err() error
	// Repairing reports whether a fault revoked the circuit and the
	// plane's repair loop is re-admitting it.
	Repairing() bool
	// SetOwner and Owner carry a back-pointer for the tier composing
	// planes: the federation router stores its handle on the plane
	// connection it wraps and reads it back in the plane's terminal hook.
	// The pointer lives and dies with the connection, so no shared index
	// is kept. Owner is nil until SetOwner is called.
	SetOwner(owner any)
	Owner() any
}

// Surface is one admission plane: the subset of *Manager the federation
// router needs to admit, observe, fault, and drain a plane without
// knowing its concrete type. Admit's denials are *UnroutableError values
// whose FaultBlocked field tells a plane that cannot serve the request
// from one that is merely full; the router's breaker hears only the
// former. Routable answers before any of that: the router tries first the
// planes whose published rows would route the pair, so a policy's
// preference (the same pair, the same plane, under hash) holds among the
// planes that can route it.
type Surface interface {
	// Admit requests a circuit; the plane-typed form of Connect.
	Admit(ctx context.Context, src, dst int) (Conn, error)
	// Routable predicts, lock-free, whether Admit would find a route for
	// the pair on the plane's rows as last published (see Manager.Routable):
	// a hint for the order planes are tried in, never a verdict.
	Routable(src, dst int) bool
	// Tree is the fat tree this plane schedules against.
	Tree() *topology.Tree
	// Unavailable is the live count of channels no new request can use —
	// occupied plus failed or quarantined — the O(1) signal least-loaded
	// plane selection reads per admission, so a plane that lost capacity
	// to faults ranks behind one that did not.
	Unavailable() int64
	// Stats snapshots the plane's counters and distributions.
	Stats() Stats
	// Health is the fault-state slice of Stats, cheap enough for a
	// liveness probe on a busy plane.
	Health() Health

	// Fault surface: inject, inspect, and heal (see the Manager methods).
	Fail(fs *faults.FaultSet) (failed, revoked int, err error)
	Repair(fs *faults.FaultSet) (int, error)
	RepairAll() int
	Faults() *faults.FaultSet
	FaultCount() int
	// Gray-failure surface: the channels flap damping currently holds in
	// quarantine, and the operator override that releases them all.
	Quarantined() []faults.Channel
	ClearQuarantine() int

	// Close stops admission and drains the plane on the caller (ctx is
	// checked before the final pass, which is not interrupted).
	Close(ctx context.Context) error
}

// Compile-time proof that the concrete plane types satisfy the surface.
var (
	_ Surface = (*Manager)(nil)
	_ Conn    = (*Handle)(nil)
)

// Admit is Connect with the plane-typed return. The nil-handle error
// case must not produce a non-nil Conn holding a nil *Handle.
func (m *Manager) Admit(ctx context.Context, src, dst int) (Conn, error) {
	h, err := m.Connect(ctx, src, dst)
	if h == nil {
		return nil, err
	}
	return h, err
}

// Tree returns the fat tree this manager schedules against.
func (m *Manager) Tree() *topology.Tree { return m.cfg.Tree }

// Unavailable returns the live number of channels no new request can use:
// the link state's O(1) occupancy gauge plus its masked channels — no
// lock, safe on any goroutine, and the signal federation's least-loaded
// policy polls per admission.
func (m *Manager) Unavailable() int64 { return m.st.Unavailable() }
