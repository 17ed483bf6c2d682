package federation

// The federated connection handle. It wraps the owning plane's
// connection and routes Release back to that plane — transparently
// following the connection when a plane failure migrated it, so the
// caller holds one stable handle across cross-plane re-admissions.

import (
	"sync"
	"sync/atomic"

	"repro/internal/fabric"
)

// Handle is a granted federated circuit. Release it exactly once. A
// plane failure may migrate the circuit to a surviving plane (Plane and
// Ports change); Err reports whether it was lost for good.
type Handle struct {
	r        *Router
	src, dst int
	released atomic.Bool

	// mu guards the migration state.
	mu       sync.Mutex
	conn     fabric.Conn // nil while migrating or after terminal/release
	plane    int         // index of the owning plane
	terminal error       // set once re-admission is exhausted
}

// Handle is itself a fabric.Conn: one plane and a federation of planes
// present the same circuit surface to callers.
var _ fabric.Conn = (*Handle)(nil)

// Src returns the source node.
func (h *Handle) Src() int { return h.src }

// Dst returns the destination node.
func (h *Handle) Dst() int { return h.dst }

// Plane returns the name of the plane currently carrying the circuit
// (the last one, after a terminal loss or release).
func (h *Handle) Plane() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.r.planes[h.plane].name
}

// Ports returns the route on the owning plane, empty while the circuit
// is migrating between planes or after it died.
func (h *Handle) Ports() []int {
	h.mu.Lock()
	c := h.conn
	h.mu.Unlock()
	if c == nil {
		return nil
	}
	return c.Ports()
}

// Err reports why the circuit died: an error matching ErrConnLost once
// cross-plane re-admission is exhausted, nil while the circuit is alive
// or migrating. A plane's own terminal verdict is never the answer: the
// router's hook migrates every circuit a plane retires, so between the
// plane's verdict and the hook picking the circuit up it is migrating,
// not dead — an error reported there would turn back into nil.
func (h *Handle) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.terminal
}

// Repairing reports whether the circuit is currently without a route:
// its plane's repair loop is re-admitting it, or the router is
// migrating it to another plane.
func (h *Handle) Repairing() bool {
	h.mu.Lock()
	c, term := h.conn, h.terminal
	h.mu.Unlock()
	if term != nil {
		return false
	}
	if c == nil || c.Err() != nil { // migrating: between planes, or about to be
		return !h.released.Load()
	}
	return c.Repairing()
}

// Release returns the circuit's channels to its owning plane, exactly
// once; a second Release returns ErrReleased. Releasing a lost circuit
// returns its terminal error (matching ErrConnLost), so a drain loop
// learns which connections the plane failures took down; releasing a
// circuit that is mid-migration returns nil and the router puts the
// re-admitted circuit straight back.
func (h *Handle) Release() error {
	if !h.released.CompareAndSwap(false, true) {
		return ErrReleased
	}
	h.mu.Lock()
	c := h.conn
	h.conn = nil
	term := h.terminal
	h.mu.Unlock()
	if c == nil {
		return term
	}
	err := c.Release()
	if err != nil && c.Err() != nil {
		// The plane's terminal verdict on a circuit the router's hook had
		// not picked up yet: the release caught it mid-migration, and its
		// channels went back at revocation — nothing is lost.
		return nil
	}
	return err
}

// SetOwner is a no-op: nothing federates federated handles, so a Handle
// satisfies fabric.Conn without carrying an owner.
func (h *Handle) SetOwner(any) {}

// Owner returns nil (see SetOwner).
func (h *Handle) Owner() any { return nil }
