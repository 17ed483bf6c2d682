package linkstate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func newState(t testing.TB, l, m, w int) *State {
	t.Helper()
	return New(topology.MustNew(l, m, w))
}

func TestFreshStateAllAvailable(t *testing.T) {
	s := newState(t, 3, 4, 4)
	if s.OccupiedCount() != 0 {
		t.Fatalf("fresh occupied = %d", s.OccupiedCount())
	}
	if s.ChannelCount() != 2*s.Tree().TotalLinks() {
		t.Fatalf("ChannelCount = %d", s.ChannelCount())
	}
	if s.Utilization() != 0 {
		t.Fatalf("Utilization = %v", s.Utilization())
	}
	for h := 0; h < s.Tree().LinkLevels(); h++ {
		for idx := 0; idx < s.Tree().SwitchesAt(h); idx++ {
			if s.ULink(h, idx) != 0b1111 || s.DLink(h, idx) != 0b1111 {
				t.Fatalf("level %d switch %d not fully available", h, idx)
			}
		}
	}
}

func TestAllocateRelease(t *testing.T) {
	s := newState(t, 2, 4, 4)
	if err := s.Allocate(Up, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if s.Available(Up, 0, 1, 2) {
		t.Fatal("channel still available after Allocate")
	}
	if err := s.Allocate(Up, 0, 1, 2); err == nil {
		t.Fatal("double Allocate succeeded")
	}
	if s.OccupiedCount() != 1 {
		t.Fatalf("occupied = %d", s.OccupiedCount())
	}
	if err := s.Release(Up, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(Up, 0, 1, 2); err == nil {
		t.Fatal("double Release succeeded")
	}
	if s.OccupiedCount() != 0 {
		t.Fatal("state not clean after release")
	}
}

func TestUpAndDownIndependent(t *testing.T) {
	s := newState(t, 2, 4, 4)
	if err := s.Allocate(Up, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !s.Available(Down, 0, 0, 0) {
		t.Fatal("down channel affected by up allocation")
	}
	up, down := s.LevelOccupancy(0)
	if up != 1 || down != 0 {
		t.Fatalf("LevelOccupancy = %d,%d", up, down)
	}
}

func TestAvailBoth(t *testing.T) {
	s := newState(t, 2, 4, 4)
	// Occupy up port 0 at switch 1 and down port 2 at switch 3.
	if err := s.Allocate(Up, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Allocate(Down, 0, 3, 2); err != nil {
		t.Fatal(err)
	}
	if avail := s.AvailBothWord(0, 1, 3); avail != 0b1010 {
		t.Fatalf("AvailBothWord = %04b, want 1010: both occupied ports masked, the free ones kept", avail)
	}
}

func TestDirectionString(t *testing.T) {
	if Up.String() != "up" || Down.String() != "down" {
		t.Fatal("Direction strings wrong")
	}
	if Direction(9).String() != "Direction(9)" {
		t.Fatal("unknown direction string wrong")
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := newState(t, 3, 4, 4)
	ref := newState(t, 3, 4, 4)
	snap := s.Snapshot()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		h := rng.Intn(2)
		idx := rng.Intn(16)
		p := rng.Intn(4)
		d := Direction(rng.Intn(2))
		if s.Available(d, h, idx, p) {
			if err := s.Allocate(d, h, idx, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Equal(ref) {
		t.Fatal("mutations had no effect")
	}
	s.Restore(snap)
	if !s.Equal(ref) {
		t.Fatal("Restore did not recover the fresh state")
	}
}

func TestReset(t *testing.T) {
	s := newState(t, 2, 4, 4)
	if err := s.Allocate(Down, 0, 2, 3); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if s.OccupiedCount() != 0 {
		t.Fatal("Reset left occupied channels")
	}
}

func TestAllocatePathAndRelease(t *testing.T) {
	s := newState(t, 3, 4, 4)
	src, dst := 0, 24 // ancestor at level 2
	ports := []int{1, 2}
	if err := s.AllocatePath(src, dst, ports); err != nil {
		t.Fatal(err)
	}
	// 2 levels × 2 channels.
	if got := s.OccupiedCount(); got != 4 {
		t.Fatalf("occupied = %d want 4", got)
	}
	// The up channel at the source switch and the down channel at the
	// destination switch use port 1.
	sigma, _ := s.Tree().NodeSwitch(src)
	delta, _ := s.Tree().NodeSwitch(dst)
	if s.Available(Up, 0, sigma, 1) {
		t.Fatal("source up channel not claimed")
	}
	if s.Available(Down, 0, delta, 1) {
		t.Fatal("destination down channel not claimed")
	}
	if err := s.ReleasePath(src, dst, ports); err != nil {
		t.Fatal(err)
	}
	if s.OccupiedCount() != 0 {
		t.Fatal("release left channels occupied")
	}
}

func TestAllocatePathConflictRollsBack(t *testing.T) {
	s := newState(t, 3, 4, 4)
	// Pre-occupy the level-1 down channel the path will need.
	ports := []int{1, 2}
	delta1 := s.Tree().UpParent(0, 6, 1) // mirror switch at level 1 for dst 24
	if err := s.Allocate(Down, 1, delta1, 2); err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()
	if err := s.AllocatePath(0, 24, ports); err == nil {
		t.Fatal("AllocatePath should have failed")
	}
	after := s.Snapshot()
	sRef := newState(t, 3, 4, 4)
	sRef.Restore(before)
	sCmp := newState(t, 3, 4, 4)
	sCmp.Restore(after)
	if !sRef.Equal(sCmp) {
		t.Fatal("failed AllocatePath left residue")
	}
}

func TestAllocatePathWrongPortCount(t *testing.T) {
	s := newState(t, 3, 4, 4)
	if err := s.AllocatePath(0, 24, []int{1}); err == nil {
		t.Fatal("wrong port count accepted")
	}
	if err := s.ReleasePath(0, 24, []int{1}); err == nil {
		t.Fatal("wrong port count accepted by ReleasePath")
	}
}

func TestReleasePathReportsUnoccupied(t *testing.T) {
	s := newState(t, 3, 4, 4)
	if err := s.ReleasePath(0, 24, []int{0, 0}); err == nil {
		t.Fatal("releasing unallocated path should error")
	}
}

func TestRestoreShapeMismatchPanics(t *testing.T) {
	s := newState(t, 3, 4, 4)
	other := newState(t, 2, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Restore with mismatched snapshot did not panic")
		}
	}()
	s.Restore(other.Snapshot())
}

// Property: a random sequence of successful AllocatePath calls followed by
// releasing them all in any order returns the state to fresh.
func TestQuickAllocateReleaseInverse(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(tree)
		type conn struct {
			src, dst int
			ports    []int
		}
		var live []conn
		for i := 0; i < 30; i++ {
			src, dst := rng.Intn(64), rng.Intn(64)
			h := tree.AncestorLevel(src, dst)
			ports := make([]int, h)
			for j := range ports {
				ports[j] = rng.Intn(4)
			}
			if err := s.AllocatePath(src, dst, ports); err == nil {
				live = append(live, conn{src, dst, ports})
			}
		}
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		for _, c := range live {
			if err := s.ReleasePath(c.src, c.dst, c.ports); err != nil {
				return false
			}
		}
		return s.OccupiedCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: OccupiedCount is exactly 2*H per successfully allocated path.
func TestQuickOccupancyAccounting(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(tree)
		want := 0
		for i := 0; i < 20; i++ {
			src, dst := rng.Intn(64), rng.Intn(64)
			h := tree.AncestorLevel(src, dst)
			ports := make([]int, h)
			for j := range ports {
				ports[j] = rng.Intn(4)
			}
			if err := s.AllocatePath(src, dst, ports); err == nil {
				want += 2 * h
			}
		}
		return s.OccupiedCount() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSnapshotRestore(b *testing.B) {
	s := newState(b, 3, 16, 16)
	snap := s.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Restore(snap)
	}
}

func TestFailLinkSurvivesReset(t *testing.T) {
	s := newState(t, 3, 4, 4)
	s.FailLink(Up, 0, 2, 1)
	s.FailLink(Down, 1, 5, 3)
	if s.Available(Up, 0, 2, 1) || s.Available(Down, 1, 5, 3) {
		t.Fatal("failed channels still available")
	}
	if s.FailedCount() != 2 {
		t.Fatalf("FailedCount = %d", s.FailedCount())
	}
	s.Reset()
	if s.Available(Up, 0, 2, 1) || s.Available(Down, 1, 5, 3) {
		t.Fatal("Reset revived failed channels")
	}
	// Healthy channels came back.
	if !s.Available(Up, 0, 2, 0) {
		t.Fatal("Reset lost healthy channels")
	}
	// Double-failing is a no-op.
	s.FailLink(Up, 0, 2, 1)
	if s.FailedCount() != 2 {
		t.Fatal("double FailLink changed the count")
	}
}

func TestFailedChannelCannotBeAllocatedOrReleased(t *testing.T) {
	s := newState(t, 2, 4, 4)
	s.FailLink(Up, 0, 0, 0)
	if err := s.Allocate(Up, 0, 0, 0); err == nil {
		t.Fatal("allocated a failed channel")
	}
	if err := s.Release(Up, 0, 0, 0); err == nil {
		t.Fatal("released (revived) a failed channel")
	}
	if s.Available(Up, 0, 0, 0) {
		t.Fatal("failed channel available after release attempt")
	}
}

func TestFailedCountFreshState(t *testing.T) {
	if newState(t, 2, 4, 4).FailedCount() != 0 {
		t.Fatal("fresh state reports failures")
	}
}

func TestSchedulingAvoidsFailedLinks(t *testing.T) {
	// A single request with every up channel of its source switch failed
	// except port 2 must route via port 2.
	s := newState(t, 2, 4, 4)
	for p := 0; p < 4; p++ {
		if p != 2 {
			s.FailLink(Up, 0, 0, p)
		}
	}
	if avail := s.ULink(0, 0); avail != 1<<2 {
		t.Fatalf("ULink after failures = %04b, want 0100", avail)
	}
}
