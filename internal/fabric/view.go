package fabric

// The published view: a lock-free copy of the plane's link rows, so a tier
// that composes planes can ask, before it queues a request anywhere, which
// planes would route it. The paper's Level-wise test — Ulink(h, σ_h) AND
// Dlink(h, δ_h) non-empty at every level below the common ancestor
// (Theorem 2) — costs a few word loads per level, far less than the epoch
// round trip it saves when the answer is no.
//
// Writers: every critical section under mu that changes a row publishes it
// before it unlocks — the rows along each route an epoch granted (grants and
// repairs) or a release returned, and the whole view after a mask change
// (Fail and its revocations, Repair, RepairAll, quarantine settling,
// ClearQuarantine). So whenever mu is free the view equals the rows word
// for word; a reader racing a critical section sees each row either before
// or after it, never torn. Readers: Routable, with atomic loads and no lock.
//
// The view lives here and not in internal/linkstate: linkstate is the
// scheduler's single-threaded state, and what a row's publication must be
// ordered with — the release ring, the registry, the fault sets — is the
// manager's. It exists only once someone asks: the first Routable call
// switches it on, so a manager nobody asks publishes nothing. Every row is
// one word (topology.New refuses w > 64), so every tree has a view.

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/linkstate"
	"repro/internal/topology"
)

// view is the published copy of a state's availability rows:
// u[h][idx] mirrors Ulink(h, idx) and d[h][idx] mirrors Dlink(h, idx).
type view struct {
	tree *topology.Tree
	u, d [][]atomic.Uint64
}

// newView copies every row of st. Caller holds m.mu.
func newView(st *linkstate.State) *view {
	tree := st.Tree()
	v := &view{tree: tree, u: make([][]atomic.Uint64, tree.LinkLevels()), d: make([][]atomic.Uint64, tree.LinkLevels())}
	for h := range v.u {
		v.u[h] = make([]atomic.Uint64, tree.SwitchesAt(h))
		v.d[h] = make([]atomic.Uint64, tree.SwitchesAt(h))
	}
	v.all(st)
	return v
}

// all publishes every row of st: the mask-change form. Caller holds m.mu.
func (v *view) all(st *linkstate.State) {
	for h := range v.u {
		u, d := st.LevelWords(h)
		for i := range u {
			v.u[h][i].Store(u[i])
			v.d[h][i].Store(d[i])
		}
	}
}

// route publishes the rows a climb from src toward dst crosses on its
// first len(ports) levels: the rows a grant, a release or a rollback of
// that route just changed. Caller holds m.mu.
func (v *view) route(st *linkstate.State, src, dst int, ports []int) {
	var c topology.RouteCursor
	c.Start(v.tree, src, dst)
	for h, p := range ports {
		u, d := st.LevelWords(h)
		sigma, delta := c.Sigma(), c.Delta()
		v.u[h][sigma].Store(u[sigma])
		v.d[h][delta].Store(d[delta])
		c.Advance(p)
	}
}

// routable is Level-wise first-fit over the published rows.
func (v *view) routable(src, dst int) bool {
	var c topology.RouteCursor
	c.Start(v.tree, src, dst)
	for h, top := 0, v.tree.AncestorLevel(src, dst); h < top; h++ {
		free := v.u[h][c.Sigma()].Load() & v.d[h][c.Delta()].Load()
		if free == 0 {
			return false
		}
		c.Advance(bits.TrailingZeros64(free))
	}
	return true
}

// Routable reports whether Level-wise first-fit would route src→dst on the
// plane's rows as last published — a prediction, not a reservation: an
// epoch running meanwhile may take or free what it read. It takes no lock
// and allocates nothing once the view is on; the first call switches the
// view on (one pass under mu copying every row). Endpoints must be in
// range.
func (m *Manager) Routable(src, dst int) bool {
	v := m.view.Load()
	if v == nil {
		v = m.openView()
	}
	return v.routable(src, dst)
}

// openView switches the view on, once.
func (m *Manager) openView() *view {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.view.Load()
	if v == nil {
		v = newView(m.st)
		m.view.Store(v)
	}
	return v
}

// publishRouteLocked publishes the rows of one route, if the view is on.
// Caller holds m.mu.
func (m *Manager) publishRouteLocked(src, dst int, ports []int) {
	if v := m.view.Load(); v != nil {
		v.route(m.st, src, dst, ports)
	}
}

// publishAllLocked publishes every row after a mask change, if the view
// is on. Caller holds m.mu.
func (m *Manager) publishAllLocked() {
	if v := m.view.Load(); v != nil {
		v.all(m.st)
	}
}
