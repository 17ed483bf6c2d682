// Package topology constructs fat-tree interconnection networks FT(l, m, w)
// and exposes the structural queries the schedulers need: parent/child
// adjacency, lowest-common-ancestor level, and full path expansion.
//
// The topology is materialized as explicit adjacency arrays built from the
// digit-shift wiring of Theorem 1 (package digits). Two further independent
// constructions — the paper's Ohring integer rule and a literal recursive
// composition of w sub-trees plus new top switches — are provided for the
// symmetric case and cross-validated by the package tests, so the closed
// form, the published construction rule, and the recursive definition are
// demonstrably the same network.
package topology

import (
	"fmt"
	"io"
	"math/bits"

	"repro/internal/digits"
)

// Tree is an immutable fat tree FT(l, m, w). All switch references are
// (level, dense index) pairs; nodes are integers 0..Nodes()-1 attached
// below level-0 switches.
//
// The hot-path queries — UpParent, NodeSwitch, AncestorLevel, and
// everything RouteCursor composes from them — run on a precomputed
// kernel (digits.Kernel): one contiguous parent table for all levels,
// cached stride/digit tables, and shift/mask forms when m or w is a
// power of two. WithArithmeticCursor returns a view that answers the
// same queries from the Theorem 1 digit arithmetic instead; the golden
// tests pin the two bit-identical.
type Tree struct {
	spec digits.Spec
	kern *digits.Kernel

	// upFlat holds every level's parent table contiguously: the level-h
	// row block starts at upOff[h], and upFlat[upOff[h]+idx*W+p] is the
	// level-h+1 parent index reached by taking upward port p from level-h
	// switch idx. One slice for all levels keeps the cursor's working set
	// cache-resident.
	upFlat []int32
	upOff  []int32
	// Hot-path mirrors of kernel scalars, flattened into the Tree so the
	// cursor methods touch one cache line instead of chasing t.kern:
	// power-of-two shift/mask forms of w and m, the cached node count,
	// and the XOR bit-length → ancestor-level table (nil unless m is a
	// power of two).
	wPow2          bool
	mPow2          bool
	wShift, mShift uint
	mMask          int
	nodes          int
	lcaByLen       []int8

	// upChild[h][idx*W+p] is the downward (child) port at the parent
	// leading back to level-h switch idx via upward port p.
	upChild [][]int32

	// down[h][idx*M+c] is the level-h child index reached by taking
	// downward port c from level-h+1 switch idx; downPort[h][idx*M+c]
	// is the upward port at that child leading back.
	down     [][]int32
	downPort [][]int32

	// arith switches the hot-path queries from the precomputed tables to
	// the digit arithmetic (see WithArithmeticCursor).
	arith bool
}

// New constructs FT(l, m, w). It returns an error for invalid parameters
// or if the network would exceed maxNodes (a guard against accidentally
// huge allocations).
func New(l, m, w int) (*Tree, error) {
	spec := digits.Spec{L: l, M: m, W: w}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	const maxNodes = 1 << 24
	if n := spec.Nodes(); n > maxNodes {
		return nil, fmt.Errorf("topology: FT(%d,%d,%d) has %d nodes, exceeds limit %d", l, m, w, n, maxNodes)
	}
	kern, err := digits.NewKernel(spec)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		spec:     spec,
		kern:     kern,
		upOff:    make([]int32, spec.LinkLevels()+1),
		wPow2:    kern.WPow2(),
		wShift:   kern.WShift(),
		nodes:    kern.Nodes(),
		upChild:  make([][]int32, spec.LinkLevels()),
		down:     make([][]int32, spec.LinkLevels()),
		downPort: make([][]int32, spec.LinkLevels()),
	}
	t.mPow2, t.mShift, t.mMask, t.lcaByLen = kern.LCAParams()
	total := 0
	for h := 0; h < spec.LinkLevels(); h++ {
		t.upOff[h] = int32(total)
		total += spec.SwitchesAt(h) * w
	}
	t.upOff[spec.LinkLevels()] = int32(total)
	t.upFlat = make([]int32, total)
	// Two labels serve every table entry: lab is the switch being wired,
	// work the copy each of its ports shifts in place.
	lab, work := make(digits.Label, spec.L-1), make(digits.Label, spec.L-1)
	for h := 0; h < spec.LinkLevels(); h++ {
		nLow := spec.SwitchesAt(h)
		nHigh := spec.SwitchesAt(h + 1)
		up := t.upFlat[t.upOff[h]:t.upOff[h+1]]
		t.upChild[h] = make([]int32, nLow*w)
		t.down[h] = make([]int32, nHigh*m)
		t.downPort[h] = make([]int32, nHigh*m)
		for i := range t.down[h] {
			t.down[h][i] = -1
			t.downPort[h][i] = -1
		}
		for idx := 0; idx < nLow; idx++ {
			spec.LabelInto(lab, h, idx)
			for p := 0; p < w; p++ {
				copy(work, lab)
				child := spec.UpInPlace(h, work, p)
				parent := spec.Index(h+1, work)
				up[idx*w+p] = int32(parent)
				t.upChild[h][idx*w+p] = int32(child)
				t.down[h][parent*m+child] = int32(idx)
				t.downPort[h][parent*m+child] = int32(p)
			}
		}
	}
	return t, nil
}

// MustNew is New that panics on error; for tests and examples with known-
// good parameters.
func MustNew(l, m, w int) *Tree {
	t, err := New(l, m, w)
	if err != nil {
		panic(err)
	}
	return t
}

// Spec returns the radix parameters of the tree.
func (t *Tree) Spec() digits.Spec { return t.spec }

// Levels returns the number of switch levels l.
func (t *Tree) Levels() int { return t.spec.L }

// Children returns m, the number of children per switch.
func (t *Tree) Children() int { return t.spec.M }

// Parents returns w, the number of parents per non-top switch.
func (t *Tree) Parents() int { return t.spec.W }

// Nodes returns the number of processing nodes m^l.
func (t *Tree) Nodes() int { return t.kern.Nodes() }

// WithArithmeticCursor returns a view of the tree whose hot-path queries
// — UpParent, NodeSwitch, AncestorLevel, and every RouteCursor walk over
// them — use the Theorem 1 digit arithmetic (div/mod per level) instead
// of the precomputed kernel tables. The view shares all storage with the
// receiver. It exists as the reference the golden and fuzz tests pin the
// table-driven kernel against: every scheduler family must produce
// bit-identical results over either view.
func (t *Tree) WithArithmeticCursor() *Tree {
	c := *t
	c.arith = true
	return &c
}

// SwitchesAt returns the number of switches at a level.
func (t *Tree) SwitchesAt(level int) int { return t.spec.SwitchesAt(level) }

// TotalSwitches returns the switch count over all levels.
func (t *Tree) TotalSwitches() int { return t.spec.TotalSwitches() }

// LinkLevels returns l-1, the number of levels that carry inter-switch
// links. Link level h joins switch levels h and h+1.
func (t *Tree) LinkLevels() int { return t.spec.LinkLevels() }

// LinksAt returns the number of physical inter-switch links at link level
// h (each carries one upward and one downward channel).
func (t *Tree) LinksAt(h int) int { return t.spec.SwitchesAt(h) * t.spec.W }

// TotalLinks returns the number of physical inter-switch links in the tree.
func (t *Tree) TotalLinks() int {
	total := 0
	for h := 0; h < t.LinkLevels(); h++ {
		total += t.LinksAt(h)
	}
	return total
}

// UpParent returns the level-h+1 switch index reached by taking upward
// port p from level-h switch idx.
func (t *Tree) UpParent(h, idx, p int) int {
	if t.arith {
		return t.kern.UpParentArith(h, idx, p)
	}
	if t.wPow2 {
		return int(t.upFlat[int(t.upOff[h])+(idx<<t.wShift|p)])
	}
	return int(t.upFlat[int(t.upOff[h])+idx*t.spec.W+p])
}

// UpParentDownPort returns the downward port at the parent that leads back
// to level-h switch idx when climbing via upward port p.
func (t *Tree) UpParentDownPort(h, idx, p int) int {
	return int(t.upChild[h][idx*t.spec.W+p])
}

// DownChild returns the level-h switch index reached by taking downward
// port c from level-h+1 switch idx.
func (t *Tree) DownChild(h, idx, c int) int {
	return int(t.down[h][idx*t.spec.M+c])
}

// DownChildUpPort returns the upward port at the child that leads back to
// the level-h+1 switch idx when descending via downward port c.
func (t *Tree) DownChildUpPort(h, idx, c int) int {
	return int(t.downPort[h][idx*t.spec.M+c])
}

// NodeSwitch returns the level-0 switch index of node n and the child port
// it occupies. The dense level-0 index is n/m directly (Index is the
// inverse of LabelOf), so no Label is materialized — this sits on every
// scheduler's per-request hot path (shift/mask when m is a power of two).
func (t *Tree) NodeSwitch(n int) (switchIdx, port int) {
	if uint(n) >= uint(t.nodes) {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", n, t.nodes))
	}
	if t.mPow2 && !t.arith {
		return n >> t.mShift, n & t.mMask
	}
	return n / t.spec.M, n % t.spec.M
}

// AncestorLevel returns the lowest-common-ancestor level H of the level-0
// switches of two nodes: the request from a to b needs upward ports
// P_0..P_{H-1}. H == 0 means both nodes share a level-0 switch.
func (t *Tree) AncestorLevel(a, b int) int {
	if t.arith {
		return t.spec.NodeAncestorLevel(a, b)
	}
	if t.lcaByLen != nil {
		if uint(a) >= uint(t.nodes) || uint(b) >= uint(t.nodes) {
			panic(fmt.Sprintf("digits: nodes (%d,%d) out of range [0,%d)", a, b, t.nodes))
		}
		return int(t.lcaByLen[bits.Len(uint((a>>t.mShift)^(b>>t.mShift)))])
	}
	return t.kern.NodeAncestorLevel(a, b)
}

// SubtreeAt returns the index of the level-`level` subtree containing
// node n (see digits.Kernel.SubtreeAt): two nodes share a level-ℓ
// subtree exactly when AncestorLevel(a, b) <= ℓ, so requests in
// distinct level-ℓ subtrees touch disjoint Ulink/Dlink rows — the
// invariant the subtree-sharded parallel engine schedules on.
func (t *Tree) SubtreeAt(n, level int) int { return t.kern.SubtreeAt(n, level) }

// Subtrees returns the number of disjoint level-`level` subtrees,
// m^(l-1-level).
func (t *Tree) Subtrees(level int) int { return t.kern.Subtrees(level) }

// Hop is one switch visited by a path.
type Hop struct {
	Level int
	Index int
}

// Path is the full switch sequence of a routed connection: up from the
// source switch to the common ancestor, then down to the destination
// switch. For an H-level request it holds 2H+1 hops.
type Path struct {
	Src, Dst int   // nodes
	Ports    []int // upward port chosen at each level 0..H-1
	Hops     []Hop
}

// ExpandPath materializes the switch sequence of a connection from src to
// dst using the given upward ports (one per level up to the ancestor).
// It returns an error if the number of ports does not match the ancestor
// level or any port is out of range. The downward half is derived from the
// adjacency arrays alone — not from Theorem 2 — so it independently
// witnesses that the mirrored ports reach the destination.
func (t *Tree) ExpandPath(src, dst int, ports []int) (*Path, error) {
	if src < 0 || src >= t.Nodes() || dst < 0 || dst >= t.Nodes() {
		return nil, fmt.Errorf("topology: nodes (%d,%d) out of range [0,%d)", src, dst, t.Nodes())
	}
	h := t.AncestorLevel(src, dst)
	if len(ports) != h {
		return nil, fmt.Errorf("topology: request (%d→%d) needs %d ports, got %d", src, dst, h, len(ports))
	}
	for lvl, p := range ports {
		if p < 0 || p >= t.spec.W {
			return nil, fmt.Errorf("topology: port %d at level %d out of range [0,%d)", p, lvl, t.spec.W)
		}
	}
	p := &Path{Src: src, Dst: dst, Ports: append([]int(nil), ports...)}
	cur, _ := t.NodeSwitch(src)
	p.Hops = append(p.Hops, Hop{0, cur})
	// Climb.
	for lvl := 0; lvl < h; lvl++ {
		cur = t.UpParent(lvl, cur, ports[lvl])
		p.Hops = append(p.Hops, Hop{lvl + 1, cur})
	}
	// Descend along the unique tree path to dst: at each level pick the
	// child that is an ancestor of dst's level-0 switch.
	dstSwitch, _ := t.NodeSwitch(dst)
	dstLab := t.spec.LabelOf(0, dstSwitch)
	for lvl := h - 1; lvl >= 0; lvl-- {
		c := dstLab[lvl] // child digit of the destination at this level
		next := t.DownChild(lvl, cur, c)
		if next < 0 {
			return nil, fmt.Errorf("topology: no child %d below switch (%d,%d)", c, lvl+1, cur)
		}
		cur = next
		p.Hops = append(p.Hops, Hop{lvl, cur})
	}
	if cur != dstSwitch {
		return nil, fmt.Errorf("topology: path ends at switch %d, destination switch is %d", cur, dstSwitch)
	}
	return p, nil
}

// DownSwitchOnPath returns the destination-side level-h switch δ_h of a
// request from src to dst routed with the given upward ports (Theorem 2's
// mirror switch): the switch reached by climbing h levels from the
// destination switch with the same ports.
func (t *Tree) DownSwitchOnPath(dst int, ports []int, h int) int {
	cur, _ := t.NodeSwitch(dst)
	for lvl := 0; lvl < h; lvl++ {
		cur = t.UpParent(lvl, cur, ports[lvl])
	}
	return cur
}

// Validate performs structural self-checks: bidirectional adjacency
// consistency, complete down tables, and parent-set disjointness. It
// returns the first inconsistency found, or nil.
func (t *Tree) Validate() error {
	s := t.spec
	for h := 0; h < t.LinkLevels(); h++ {
		nLow, nHigh := s.SwitchesAt(h), s.SwitchesAt(h+1)
		for idx := 0; idx < nLow; idx++ {
			for p := 0; p < s.W; p++ {
				parent := t.UpParent(h, idx, p)
				if parent < 0 || parent >= nHigh {
					return fmt.Errorf("level %d switch %d port %d: parent %d out of range", h, idx, p, parent)
				}
				c := t.UpParentDownPort(h, idx, p)
				if got := t.DownChild(h, parent, c); got != idx {
					return fmt.Errorf("level %d switch %d port %d: down(%d,%d) = %d, want %d", h, idx, p, parent, c, got, idx)
				}
				if got := t.DownChildUpPort(h, parent, c); got != p {
					return fmt.Errorf("level %d switch %d port %d: up-port back = %d", h, idx, p, got)
				}
			}
		}
		for idx := 0; idx < nHigh; idx++ {
			for c := 0; c < s.M; c++ {
				if t.DownChild(h, idx, c) < 0 {
					return fmt.Errorf("level %d parent %d: child port %d unwired", h+1, idx, c)
				}
			}
		}
	}
	return nil
}

// OhringParent computes the parent index using the paper's integer
// construction rule for the symmetric case m == w:
//
//	τ_{h+1} = (τ div w^{h+1})·w^{h+1} + ((τ mod w^{h+1})·w + p) mod w^{h+1}
//
// It is an independent formulation of the wiring used by tests to
// cross-validate the digit-shift construction. It panics if m != w.
func (t *Tree) OhringParent(h, tau, p int) int {
	if !t.spec.Symmetric() {
		panic("topology: OhringParent requires m == w")
	}
	w := t.spec.W
	block := digits.Pow(w, h+1)
	gamma := tau / block
	delta := tau % block
	return gamma*block + (delta*w+p)%block
}

// WriteDot emits the tree in Graphviz DOT format: switches as boxes per
// level (rank-grouped), nodes as circles, one edge per physical link.
func (t *Tree) WriteDot(out io.Writer) error {
	if _, err := fmt.Fprintf(out, "graph ft {\n  rankdir=BT;\n"); err != nil {
		return err
	}
	for h := 0; h < t.Levels(); h++ {
		fmt.Fprintf(out, "  { rank=same;")
		for idx := 0; idx < t.SwitchesAt(h); idx++ {
			fmt.Fprintf(out, " s%d_%d;", h, idx)
		}
		fmt.Fprintf(out, " }\n")
		for idx := 0; idx < t.SwitchesAt(h); idx++ {
			fmt.Fprintf(out, "  s%d_%d [shape=box,label=\"SW(%d,%d)\"];\n", h, idx, h, idx)
		}
	}
	for n := 0; n < t.Nodes(); n++ {
		sw, _ := t.NodeSwitch(n)
		fmt.Fprintf(out, "  n%d [shape=circle,label=\"%d\"];\n  n%d -- s0_%d;\n", n, n, n, sw)
	}
	for h := 0; h < t.LinkLevels(); h++ {
		for idx := 0; idx < t.SwitchesAt(h); idx++ {
			for p := 0; p < t.Parents(); p++ {
				fmt.Fprintf(out, "  s%d_%d -- s%d_%d [label=\"%d\"];\n", h, idx, h+1, t.UpParent(h, idx, p), p)
			}
		}
	}
	_, err := fmt.Fprintln(out, "}")
	return err
}

// String describes the tree, e.g. "FT(3,4,4): 64 nodes, 48 switches".
func (t *Tree) String() string {
	return fmt.Sprintf("FT(%d,%d,%d): %d nodes, %d switches, %d links",
		t.spec.L, t.spec.M, t.spec.W, t.Nodes(), t.TotalSwitches(), t.TotalLinks())
}
