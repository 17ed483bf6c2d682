package topology

import (
	"math/rand"
	"testing"
)

// TestRouteCursorMatchesHandWalk pins the cursor to the raw NodeSwitch +
// UpParent arithmetic it replaces, over random routes on asymmetric
// trees.
func TestRouteCursorMatchesHandWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{2, 4, 4}, {3, 4, 4}, {3, 4, 2}, {4, 3, 3}, {2, 6, 3}} {
		tree := MustNew(dims[0], dims[1], dims[2])
		for trial := 0; trial < 50; trial++ {
			src := rng.Intn(tree.Nodes())
			dst := rng.Intn(tree.Nodes())
			h := tree.AncestorLevel(src, dst)
			ports := make([]int, h)
			for i := range ports {
				ports[i] = rng.Intn(tree.Parents())
			}

			sigma, _ := tree.NodeSwitch(src)
			delta, _ := tree.NodeSwitch(dst)
			var c RouteCursor
			c.Start(tree, src, dst)
			for lvl, p := range ports {
				if c.Sigma() != sigma || c.Delta() != delta || c.Level() != lvl {
					t.Fatalf("FT%v %d→%d level %d: cursor (σ=%d δ=%d h=%d), want (σ=%d δ=%d h=%d)",
						dims, src, dst, lvl, c.Sigma(), c.Delta(), c.Level(), sigma, delta, lvl)
				}
				sigma = tree.UpParent(lvl, sigma, p)
				delta = tree.UpParent(lvl, delta, p)
				c.Advance(p)
			}
			if c.Sigma() != sigma || c.Delta() != delta || c.Level() != h {
				t.Fatalf("FT%v %d→%d: final cursor (σ=%d δ=%d), want (σ=%d δ=%d)",
					dims, src, dst, c.Sigma(), c.Delta(), sigma, delta)
			}

			// Walk visits the same triples.
			var c2 RouteCursor
			c2.Start(tree, src, dst)
			var visited int
			c2.Walk(ports, func(level, s2, d2, p int) {
				if p != ports[level] {
					t.Fatalf("Walk port %d at level %d, want %d", p, level, ports[level])
				}
				visited++
			})
			if visited != h {
				t.Fatalf("Walk visited %d levels, want %d", visited, h)
			}
			if c2.Sigma() != sigma || c2.Delta() != delta {
				t.Fatalf("Walk final (σ=%d δ=%d), want (σ=%d δ=%d)", c2.Sigma(), c2.Delta(), sigma, delta)
			}
		}
	}
}

// TestRouteCursorDeltaMatchesDownSwitchOnPath cross-checks the mirror
// side against the topology's independent DownSwitchOnPath walk.
func TestRouteCursorDeltaMatchesDownSwitchOnPath(t *testing.T) {
	tree := MustNew(3, 4, 4)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		src, dst := rng.Intn(tree.Nodes()), rng.Intn(tree.Nodes())
		h := tree.AncestorLevel(src, dst)
		ports := make([]int, h)
		for i := range ports {
			ports[i] = rng.Intn(tree.Parents())
		}
		var c RouteCursor
		c.Start(tree, src, dst)
		for lvl := 0; lvl < h; lvl++ {
			if want := tree.DownSwitchOnPath(dst, ports, lvl); c.Delta() != want {
				t.Fatalf("level %d: delta %d, want %d", lvl, c.Delta(), want)
			}
			c.Advance(ports[lvl])
		}
	}
}

// TestRouteCursorStartAt covers resuming a walk mid-tree.
func TestRouteCursorStartAt(t *testing.T) {
	tree := MustNew(3, 4, 4)
	var full, resumed RouteCursor
	full.Start(tree, 0, 63)
	full.Advance(1)
	resumed.StartAt(tree, full.Level(), full.Sigma(), full.Delta())
	full.Advance(2)
	resumed.Advance(2)
	if full.Sigma() != resumed.Sigma() || full.Delta() != resumed.Delta() || full.Level() != resumed.Level() {
		t.Fatalf("resumed cursor diverged: (%d,%d,%d) vs (%d,%d,%d)",
			resumed.Sigma(), resumed.Delta(), resumed.Level(), full.Sigma(), full.Delta(), full.Level())
	}
}

// TestRouteStartAndUpBlockMatchQueries pins the sweep helpers to the
// queries they fuse — RouteStart to NodeSwitch ×2 + AncestorLevel,
// RouteStartShift to RouteStart wherever it applies (power-of-two m on the
// table view, nowhere else), UpBlock to UpParent — exhaustively on small
// trees of every radix form, table and arithmetic views alike.
func TestRouteStartAndUpBlockMatchQueries(t *testing.T) {
	for _, dims := range [][3]int{{2, 4, 4}, {3, 4, 4}, {3, 4, 2}, {3, 4, 6}, {3, 3, 3}, {2, 6, 3}, {3, 6, 4}} {
		table := MustNew(dims[0], dims[1], dims[2])
		for _, tree := range []*Tree{table, table.WithArithmeticCursor()} {
			shift := tree.mPow2 && !tree.arith
			for src := 0; src < tree.Nodes(); src++ {
				for dst := 0; dst < tree.Nodes(); dst++ {
					ws, _ := tree.NodeSwitch(src)
					wd, _ := tree.NodeSwitch(dst)
					wh := tree.AncestorLevel(src, dst)
					if s, d, h := tree.RouteStart(src, dst); s != ws || d != wd || h != wh {
						t.Fatalf("FT%v arith=%v RouteStart(%d,%d) = (%d,%d,%d), want (%d,%d,%d)", dims, tree.arith, src, dst, s, d, h, ws, wd, wh)
					}
					s, d, h := tree.RouteStartShift(src, dst)
					if shift != (h >= 0) {
						t.Fatalf("FT%v arith=%v RouteStartShift(%d,%d) applies = %v, want %v", dims, tree.arith, src, dst, h >= 0, shift)
					}
					if h >= 0 && (s != ws || d != wd || h != wh) {
						t.Fatalf("FT%v RouteStartShift(%d,%d) = (%d,%d,%d), want (%d,%d,%d)", dims, src, dst, s, d, h, ws, wd, wh)
					}
				}
			}
			n := tree.Nodes()
			for _, bad := range [][2]int{{0, n}, {n, 0}, {-1, 0}, {0, -1}, {-1, -1}} {
				if _, _, h := tree.RouteStartShift(bad[0], bad[1]); h >= 0 {
					t.Fatalf("FT%v arith=%v RouteStartShift%v accepted an out-of-range endpoint", dims, tree.arith, bad)
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("FT%v arith=%v RouteStart%v did not panic", dims, tree.arith, bad)
						}
					}()
					tree.RouteStart(bad[0], bad[1])
				}()
			}
			for h := 0; h < tree.LinkLevels(); h++ {
				block, stride := tree.UpBlock(h)
				if tree.arith {
					if block != nil {
						t.Fatalf("FT%v: the arithmetic view exposed a parent table", dims)
					}
					continue
				}
				if len(block) != tree.SwitchesAt(h)*tree.Parents() {
					t.Fatalf("FT%v level %d: block of %d entries, want %d", dims, h, len(block), tree.SwitchesAt(h)*tree.Parents())
				}
				for idx := 0; idx < tree.SwitchesAt(h); idx++ {
					for p := 0; p < tree.Parents(); p++ {
						if got, want := int(block[idx*stride+p]), tree.UpParent(h, idx, p); got != want {
							t.Fatalf("FT%v level %d switch %d port %d: block says %d, UpParent %d", dims, h, idx, p, got, want)
						}
					}
				}
			}
		}
	}
}
