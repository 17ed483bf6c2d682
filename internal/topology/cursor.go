package topology

import "math/bits"

// RouteCursor tracks the switch pair a unicast connection occupies while
// it climbs: σ_h on the source side and δ_h on the destination-side
// mirror (Theorem 2: choosing upward port p at level h forces the
// downward channel of the same port index at the mirror switch, so both
// sides climb with the same port). Every scheduler in the repository —
// sequential, stale-view, backtracking, parallel — and every replay
// (verification, teardown, path release) walks this identical geometry;
// the cursor is the single implementation of that Theorem 1/2
// arithmetic.
//
// A RouteCursor is a small value type: declare it on the stack (or embed
// it in a per-request record) and Start it — no allocation, so it is
// safe on the zero-allocation scheduling hot path.
type RouteCursor struct {
	tree         *Tree
	sigma, delta int
	level        int
}

// Start positions the cursor at level 0 for a connection from src to dst
// (both processing nodes): σ_0 and δ_0 are the endpoints' level-0
// switches.
func (c *RouteCursor) Start(tree *Tree, src, dst int) {
	c.tree = tree
	if tree.mPow2 && !tree.arith && uint(src) < uint(tree.nodes) && uint(dst) < uint(tree.nodes) {
		c.sigma = src >> tree.mShift
		c.delta = dst >> tree.mShift
	} else {
		// General radix, the arithmetic view, or out-of-range endpoints
		// (NodeSwitch owns the panic).
		c.sigma, _ = tree.NodeSwitch(src)
		c.delta, _ = tree.NodeSwitch(dst)
	}
	c.level = 0
}

// StartAt positions the cursor at an explicit (level, σ, δ) triple, for
// walks that do not begin at processing nodes (multicast branches resume
// at their recorded mirrors).
func (c *RouteCursor) StartAt(tree *Tree, level, sigma, delta int) {
	c.tree = tree
	c.sigma, c.delta = sigma, delta
	c.level = level
}

// Sigma returns the source-side switch index at the current level.
func (c *RouteCursor) Sigma() int { return c.sigma }

// Delta returns the destination-side mirror switch index at the current
// level.
func (c *RouteCursor) Delta() int { return c.delta }

// Level returns the link level the cursor is about to cross (0-based).
func (c *RouteCursor) Level() int { return c.level }

// Advance crosses the current level via upward port p: both sides climb
// to their level+1 parents (the same port index on each, per Theorem 2).
// The two parent lookups are fused by hand — one shared level offset
// into the tree's contiguous parent table, shift/mask indexing when w is
// a power of two — because this is the single hottest operation in every
// scheduler's inner loop.
func (c *RouteCursor) Advance(p int) {
	t := c.tree
	if t.arith {
		c.sigma = t.kern.UpParentArith(c.level, c.sigma, p)
		c.delta = t.kern.UpParentArith(c.level, c.delta, p)
		c.level++
		return
	}
	base := int(t.upOff[c.level])
	if t.wPow2 {
		c.sigma = int(t.upFlat[base+(c.sigma<<t.wShift|p)])
		c.delta = int(t.upFlat[base+(c.delta<<t.wShift|p)])
	} else {
		w := t.spec.W
		c.sigma = int(t.upFlat[base+c.sigma*w+p])
		c.delta = int(t.upFlat[base+c.delta*w+p])
	}
	c.level++
}

// AdvanceDelta climbs the mirror side only. Multicast trees use it: each
// destination branch climbs its own mirrors with the shared ports while
// the single source-side spine is tracked separately.
func (c *RouteCursor) AdvanceDelta(p int) {
	c.delta = c.tree.UpParent(c.level, c.delta, p)
	c.level++
}

// Walk replays a fully or partially routed connection: it calls visit at
// every level with the (level, σ, δ, port) it crosses, advancing as it
// goes. The cursor ends positioned above the last port. A nil visit
// replays for position only (e.g. rewinding to a backtrack point).
func (c *RouteCursor) Walk(ports []int, visit func(level, sigma, delta, port int)) {
	for _, p := range ports {
		if visit != nil {
			visit(c.level, c.sigma, c.delta, p)
		}
		c.Advance(p)
	}
}

// RouteStart is the fused start of a unicast walk: the endpoints' level-0
// switches σ_0 and δ_0 and their ancestor level H — NodeSwitch of each
// endpoint plus AncestorLevel, which own the out-of-range panic. A loop
// that starts many walks tries RouteStartShift first.
func (t *Tree) RouteStart(src, dst int) (sigma, delta, h int) {
	sigma, _ = t.NodeSwitch(src)
	delta, _ = t.NodeSwitch(dst)
	return sigma, delta, t.AncestorLevel(src, dst)
}

// RouteStartShift is RouteStart where it is two shifts, one XOR and one
// bit-length table read: power-of-two m, the table view, both endpoints
// in range. Anywhere else it returns h < 0 and the caller takes
// RouteStart. It calls nothing, so that it inlines into a scheduler's
// per-request prep loop; a form with the fallback inside does not.
func (t *Tree) RouteStartShift(src, dst int) (sigma, delta, h int) {
	// lcaByLen is only set when m — hence the node count — is a power of
	// two, so one compare of src|dst range-checks both endpoints.
	if t.lcaByLen == nil || t.arith || uint(src|dst) >= uint(t.nodes) {
		return 0, 0, -1
	}
	sigma, delta = src>>t.mShift, dst>>t.mShift
	return sigma, delta, int(t.lcaByLen[bits.Len(uint(sigma^delta))])
}

// UpBlock returns link level h's block of the parent table, for sweeps
// that visit many switches of one level and hoist the level lookup out of
// their inner loop: block[idx*stride+p] is UpParent(h, idx, p). The
// arithmetic view has no table to expose and returns nil; its callers
// stay on UpParent.
func (t *Tree) UpBlock(h int) (block []int32, stride int) {
	if t.arith {
		return nil, 0
	}
	return t.upFlat[t.upOff[h]:t.upOff[h+1]], t.spec.W
}
