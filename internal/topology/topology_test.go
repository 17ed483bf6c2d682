package topology

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/digits"
)

func TestNewRejectsBadParams(t *testing.T) {
	for _, c := range [][3]int{{0, 4, 4}, {3, 0, 4}, {3, 4, 0}, {-1, 2, 2}} {
		if _, err := New(c[0], c[1], c[2]); err == nil {
			t.Errorf("New(%v) succeeded, want error", c)
		}
	}
	if _, err := New(30, 2, 2); err == nil {
		t.Error("New(30,2,2) should exceed the node limit")
	}
}

// TestNewRefusesWideSwitch: w > 64 is refused with ErrWideSwitch, naming
// the shape, and w = 64 — one full machine word per row — builds.
func TestNewRefusesWideSwitch(t *testing.T) {
	for _, w := range []int{65, 80, 128} {
		_, err := New(2, 4, w)
		if !errors.Is(err, ErrWideSwitch) || !strings.Contains(err.Error(), fmt.Sprintf("FT(2,4,%d)", w)) {
			t.Errorf("New(2, 4, %d) = %v, want ErrWideSwitch naming the shape", w, err)
		}
	}
	tree, err := New(2, 4, 64)
	if err != nil || tree.Parents() != 64 {
		t.Fatalf("New(2, 4, 64) = %v, %v", tree, err)
	}
}

func TestPaperFigure1Shapes(t *testing.T) {
	// Figure 1(b): 16-node two-level fat tree of 4-way switches.
	ft2 := MustNew(2, 4, 4)
	if ft2.Nodes() != 16 || ft2.SwitchesAt(0) != 4 || ft2.SwitchesAt(1) != 4 {
		t.Fatalf("FT(2,4) shape wrong: %s", ft2)
	}
	// Figure 1(c): 64-node three-level fat tree.
	ft3 := MustNew(3, 4, 4)
	if ft3.Nodes() != 64 || ft3.TotalSwitches() != 48 {
		t.Fatalf("FT(3,4) shape wrong: %s", ft3)
	}
	if ft3.TotalLinks() != 2*16*4 {
		t.Fatalf("FT(3,4) links = %d want 128", ft3.TotalLinks())
	}
}

func TestValidateAllShapes(t *testing.T) {
	shapes := [][3]int{
		{1, 4, 4}, {2, 4, 4}, {2, 8, 8}, {3, 4, 4}, {3, 6, 6},
		{4, 3, 3}, {4, 4, 4}, {3, 4, 2}, {3, 2, 4}, {2, 5, 3}, {5, 2, 2},
	}
	for _, sh := range shapes {
		tr := MustNew(sh[0], sh[1], sh[2])
		if err := tr.Validate(); err != nil {
			t.Errorf("FT(%d,%d,%d): %v", sh[0], sh[1], sh[2], err)
		}
	}
}

// Theorem 1 cross-check: the adjacency built from digit shifts must equal
// the paper's Ohring integer rule at every (level, switch, port).
func TestOhringRuleAgreesWithDigitWiring(t *testing.T) {
	for _, sh := range [][2]int{{2, 4}, {3, 4}, {4, 3}, {2, 8}, {3, 6}, {5, 2}} {
		tr := MustNew(sh[0], sh[1], sh[1])
		for h := 0; h < tr.LinkLevels(); h++ {
			for idx := 0; idx < tr.SwitchesAt(h); idx++ {
				for p := 0; p < tr.Parents(); p++ {
					want := tr.OhringParent(h, idx, p)
					got := tr.UpParent(h, idx, p)
					if got != want {
						t.Fatalf("FT(%d,%d) level %d switch %d port %d: digit %d vs Ohring %d",
							sh[0], sh[1], h, idx, p, got, want)
					}
				}
			}
		}
	}
}

func TestOhringParentPanicsOnAsymmetric(t *testing.T) {
	tr := MustNew(3, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("OhringParent on m != w did not panic")
		}
	}()
	tr.OhringParent(0, 0, 0)
}

// Third independent construction: the literal recursive composition.
func TestRecursiveConstructionAgrees(t *testing.T) {
	for _, sh := range [][2]int{{2, 4}, {3, 4}, {4, 3}, {3, 6}, {4, 4}, {5, 2}} {
		tr := MustNew(sh[0], sh[1], sh[1])
		rec := RecursiveUpTables(sh[0], sh[1])
		if len(rec) != tr.LinkLevels() {
			t.Fatalf("FT(%d,%d): recursive levels %d want %d", sh[0], sh[1], len(rec), tr.LinkLevels())
		}
		for h := range rec {
			for i, parent := range rec[h] {
				idx, p := i/tr.Parents(), i%tr.Parents()
				if got := tr.UpParent(h, idx, p); got != int(parent) {
					t.Fatalf("FT(%d,%d) level %d switch %d port %d: tree %d vs recursive %d",
						sh[0], sh[1], h, idx, p, got, parent)
				}
			}
		}
	}
}

func TestRecursiveSingleLevel(t *testing.T) {
	if rec := RecursiveUpTables(1, 4); rec != nil {
		t.Fatalf("FT(1,4) recursive tables = %v, want nil", rec)
	}
}

// Theorem 2 on the explicit graph: climbing from the destination with the
// same ports lands on the same switches the down-path traverses.
func TestTheorem2MirrorOnGraph(t *testing.T) {
	shapes := [][3]int{{2, 4, 4}, {3, 4, 4}, {4, 3, 3}, {3, 4, 2}, {3, 2, 4}}
	rng := rand.New(rand.NewSource(42))
	for _, sh := range shapes {
		tr := MustNew(sh[0], sh[1], sh[2])
		for trial := 0; trial < 500; trial++ {
			src := rng.Intn(tr.Nodes())
			dst := rng.Intn(tr.Nodes())
			h := tr.AncestorLevel(src, dst)
			ports := make([]int, h)
			for i := range ports {
				ports[i] = rng.Intn(tr.Parents())
			}
			path, err := tr.ExpandPath(src, dst, ports)
			if err != nil {
				t.Fatalf("FT(%v) ExpandPath(%d,%d,%v): %v", sh, src, dst, ports, err)
			}
			if len(path.Hops) != 2*h+1 {
				t.Fatalf("hops = %d want %d", len(path.Hops), 2*h+1)
			}
			// The descending hop at level lvl must equal the Theorem 2
			// mirror switch: climb lvl levels from dst with the same ports.
			for lvl := 0; lvl < h; lvl++ {
				mirror := tr.DownSwitchOnPath(dst, ports, lvl)
				hop := path.Hops[2*h-lvl] // descending hop at level lvl
				if hop.Level != lvl || hop.Index != mirror {
					t.Fatalf("FT(%v) (%d→%d) ports %v: down hop at level %d is (%d,%d), mirror is %d",
						sh, src, dst, ports, lvl, hop.Level, hop.Index, mirror)
				}
			}
			// And the downward link into δ_lvl is attached at the same
			// upper port P_lvl (Theorem 2's core claim): descending from
			// δ_{lvl+1} must use the child whose up-port back is P_lvl.
			for lvl := 0; lvl < h; lvl++ {
				delta := tr.DownSwitchOnPath(dst, ports, lvl)
				parent := tr.DownSwitchOnPath(dst, ports, lvl+1)
				if got := tr.UpParent(lvl, delta, ports[lvl]); got != parent {
					t.Fatalf("FT(%v): Ulink(%d,δ,%d) does not reach the path parent", sh, lvl, ports[lvl])
				}
			}
		}
	}
}

func TestExpandPathErrors(t *testing.T) {
	tr := MustNew(3, 4, 4)
	if _, err := tr.ExpandPath(-1, 0, nil); err == nil {
		t.Error("negative src accepted")
	}
	if _, err := tr.ExpandPath(0, 64, nil); err == nil {
		t.Error("out-of-range dst accepted")
	}
	if _, err := tr.ExpandPath(0, 63, []int{0}); err == nil {
		t.Error("wrong port count accepted")
	}
	if _, err := tr.ExpandPath(0, 63, []int{0, 9}); err == nil {
		t.Error("out-of-range port accepted")
	}
	if p, err := tr.ExpandPath(0, 1, nil); err != nil || len(p.Hops) != 1 {
		t.Errorf("same-switch path: %v, %v", p, err)
	}
}

func TestNodeSwitch(t *testing.T) {
	tr := MustNew(3, 4, 4)
	for n := 0; n < tr.Nodes(); n++ {
		sw, port := tr.NodeSwitch(n)
		if sw != n/4 || port != n%4 {
			t.Fatalf("NodeSwitch(%d) = %d,%d", n, sw, port)
		}
	}
}

func TestPaperFigure2Example(t *testing.T) {
	// FT(3,4): request from SW(0,0) to SW(0,6); if P0 = 1 the request must
	// come back down to level 0 using the same port index regardless of
	// the choice above level 0, i.e. via Dlink(0,6,1).
	tr := MustNew(3, 4, 4)
	src, dst := 0, 24 // nodes on switches 0 and 6
	if tr.AncestorLevel(src, dst) != 2 {
		t.Fatalf("H = %d want 2", tr.AncestorLevel(src, dst))
	}
	for p1 := 0; p1 < 4; p1++ {
		ports := []int{1, p1}
		delta0 := tr.DownSwitchOnPath(dst, ports, 0)
		dstSwitch, _ := tr.NodeSwitch(dst)
		if delta0 != dstSwitch {
			t.Fatalf("mirror at level 0 should be the destination switch")
		}
		// The level-0 down link is attached at upper port P0 = 1 of
		// switch 6 for every choice of P1.
		parent := tr.DownSwitchOnPath(dst, ports, 1)
		if tr.UpParent(0, dstSwitch, 1) != parent {
			t.Fatalf("P1=%d: down link not at port 1 of switch 6", p1)
		}
	}
}

// Property: every up link is the unique link between its two endpoints in
// the downward table, i.e. the physical link is shared by exactly one
// (up-port, down-port) pair.
func TestQuickLinkBijection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := 2 + rng.Intn(3)
		m := 2 + rng.Intn(3)
		w := 2 + rng.Intn(3)
		tr := MustNew(l, m, w)
		h := rng.Intn(tr.LinkLevels())
		idx := rng.Intn(tr.SwitchesAt(h))
		p := rng.Intn(w)
		parent := tr.UpParent(h, idx, p)
		c := tr.UpParentDownPort(h, idx, p)
		return tr.DownChild(h, parent, c) == idx && tr.DownChildUpPort(h, parent, c) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: all w^H port choices route src to dst (full path diversity up
// to the ancestor level), and distinct choices reach distinct ancestors.
func TestQuickPathDiversity(t *testing.T) {
	tr := MustNew(3, 4, 4)
	f := func(si, di uint16) bool {
		src := int(si) % tr.Nodes()
		dst := int(di) % tr.Nodes()
		h := tr.AncestorLevel(src, dst)
		if h == 0 {
			return true
		}
		total := digits.Pow(tr.Parents(), h)
		ancestors := map[int]bool{}
		for enc := 0; enc < total; enc++ {
			ports := make([]int, h)
			e := enc
			for i := range ports {
				ports[i] = e % tr.Parents()
				e /= tr.Parents()
			}
			if _, err := tr.ExpandPath(src, dst, ports); err != nil {
				return false
			}
			ancestors[tr.DownSwitchOnPath(dst, ports, h)] = true
		}
		return len(ancestors) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDot(t *testing.T) {
	tr := MustNew(2, 2, 2)
	var sb strings.Builder
	if err := tr.WriteDot(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"graph ft", "s0_0", "s1_1", "n3", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestString(t *testing.T) {
	got := MustNew(3, 4, 4).String()
	if !strings.Contains(got, "FT(3,4,4)") || !strings.Contains(got, "64 nodes") {
		t.Fatalf("String = %q", got)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad params did not panic")
		}
	}()
	MustNew(0, 0, 0)
}

// TestNewAllocatesPerLevelNotPerSwitch: New makes its tables and two work
// labels, so its allocation count grows with the number of levels and not
// with the number of switches or ports — FT(3,16,16) wires 8192 table
// entries and FT(3,4,4) 128, in the same number of allocations.
func TestNewAllocatesPerLevelNotPerSwitch(t *testing.T) {
	count := func(l, m, w int) float64 {
		return testing.AllocsPerRun(5, func() { MustNew(l, m, w) })
	}
	small, big := count(3, 4, 4), count(3, 16, 16)
	if small != big {
		t.Errorf("New allocates %.0f objects for FT(3,4,4) and %.0f for FT(3,16,16), want the same", small, big)
	}
	for _, l := range []int{2, 3, 4} {
		if got, limit := count(l, 4, 4), float64(12+4*l); got > limit {
			t.Errorf("New allocates %.0f objects for FT(%d,4,4), want at most %.0f", got, l, limit)
		}
	}
}

var sinkTree *Tree

// BenchmarkTopologyNew is tree construction at the benchmark's two sizes:
// batch_perm's FT(3,16,16) and the serving workloads' FT(3,8,8), where it
// is part of setup_s and of every plane ftserve starts.
func BenchmarkTopologyNew(b *testing.B) {
	for _, sh := range [][3]int{{3, 16, 16}, {3, 8, 8}} {
		b.Run(fmt.Sprintf("FT(%d,%d,%d)", sh[0], sh[1], sh[2]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkTree = MustNew(sh[0], sh[1], sh[2])
			}
		})
	}
}

func BenchmarkExpandPath(b *testing.B) {
	tr := MustNew(4, 4, 4)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := rng.Intn(256), rng.Intn(256)
		h := tr.AncestorLevel(src, dst)
		ports := make([]int, h)
		for j := range ports {
			ports[j] = rng.Intn(4)
		}
		if _, err := tr.ExpandPath(src, dst, ports); err != nil {
			b.Fatal(err)
		}
	}
}
