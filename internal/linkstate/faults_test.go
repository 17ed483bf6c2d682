package linkstate

import (
	"testing"

	"repro/internal/bitvec"
)

// Fault-mask invariants: FailLink/RepairLink lifecycle, the
// never-resurrect rule for Release, allocated-vs-dead accounting, and
// masked availability on both the plain and atomic query paths.
// scripts/ci.sh runs these under the race detector.

func TestFailLinkLifecycle(t *testing.T) {
	s := newState(t, 3, 4, 4)
	if !s.FailLink(Up, 1, 2, 3) {
		t.Fatal("failing a free channel reported a forfeited allocation")
	}
	if s.Available(Up, 1, 2, 3) || !s.Failed(Up, 1, 2, 3) {
		t.Fatal("failed channel still in service")
	}
	if s.FailedCount() != 1 || s.OccupiedCount() != 0 {
		t.Fatalf("counts after fail: failed=%d occupied=%d", s.FailedCount(), s.OccupiedCount())
	}
	// Double-fail is a no-op.
	if !s.FailLink(Up, 1, 2, 3) || s.FailedCount() != 1 {
		t.Fatal("double FailLink mutated the mask")
	}
	if !s.RepairLink(Up, 1, 2, 3) {
		t.Fatal("repair of a failed channel reported no-op")
	}
	if !s.Available(Up, 1, 2, 3) || s.Failed(Up, 1, 2, 3) || s.FailedCount() != 0 {
		t.Fatal("repaired channel not back in service")
	}
	// The repaired channel allocates and releases normally again.
	if err := s.Allocate(Up, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(Up, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
}

func TestRepairLinkOfHealthyChannelIsNoOp(t *testing.T) {
	s := newState(t, 2, 4, 4)
	if s.RepairLink(Down, 0, 1, 2) {
		t.Fatal("repair of a healthy channel reported work")
	}
	if !s.Available(Down, 0, 1, 2) || s.OccupiedCount() != 0 {
		t.Fatal("no-op repair mutated state")
	}
}

// TestFailLinkForfeitsAllocation fails a channel that a connection
// holds: the channel moves from the allocated to the dead category, the
// holder's eventual Release is refused without resurrecting the bit,
// and RepairLink returns the channel to service free.
func TestFailLinkForfeitsAllocation(t *testing.T) {
	s := newState(t, 2, 4, 4)
	if err := s.Allocate(Down, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if s.FailLink(Down, 0, 0, 1) {
		t.Fatal("failing an allocated channel reported it free")
	}
	if s.OccupiedCount() != 0 || s.FailedCount() != 1 {
		t.Fatalf("allocated-at-fail channel not reclassified: occupied=%d failed=%d",
			s.OccupiedCount(), s.FailedCount())
	}
	// The revoked holder's teardown must not bring the channel back.
	if err := s.Release(Down, 0, 0, 1); err == nil {
		t.Fatal("release resurrected a failed channel")
	}
	if s.Available(Down, 0, 0, 1) {
		t.Fatal("failed channel available after release attempt")
	}
	s.RepairLink(Down, 0, 0, 1)
	if !s.Available(Down, 0, 0, 1) {
		t.Fatal("repair did not return the forfeited channel to service")
	}
}

// TestFaultMaskMasksAvailability checks both query paths — the plain
// and the atomic AvailBothInto — exclude failed channels.
func TestFaultMaskMasksAvailability(t *testing.T) {
	s := newState(t, 2, 4, 4)
	s.FailLink(Up, 0, 0, 1)
	s.FailLink(Down, 0, 3, 2)
	dst := bitvec.New(s.Tree().Parents())
	s.AvailBothInto(dst, 0, 0, 3)
	if dst.Get(1) || dst.Get(2) {
		t.Fatalf("AvailBothInto saw failed channels: %s", dst)
	}
	if dst.Count() != 2 {
		t.Fatalf("AvailBothInto lost healthy channels: %s", dst)
	}
	s.AvailBothAtomicInto(dst, 0, 0, 3)
	if dst.Get(1) || dst.Get(2) || dst.Count() != 2 {
		t.Fatalf("AvailBothAtomicInto mask mismatch: %s", dst)
	}
}

// TestFailedStatesEqual pins the chaos-harness accounting identity:
// allocate/release cycles on a degraded state end bit-identical to a
// fresh state with only the faults applied.
func TestFailedStatesEqual(t *testing.T) {
	s := newState(t, 3, 4, 4)
	tree := s.Tree()
	s.FailLink(Up, 0, 0, 0)
	s.FailLink(Down, 0, 0, 0)

	src, dst := 0, tree.Nodes()-1
	ports := make([]int, tree.AncestorLevel(src, dst))
	for i := range ports {
		ports[i] = 1 // route around the failed port-0 channels
	}
	if err := s.AllocatePath(src, dst, ports); err != nil {
		t.Fatal(err)
	}
	if err := s.ReleasePath(src, dst, ports); err != nil {
		t.Fatal(err)
	}

	want := New(tree)
	want.FailLink(Up, 0, 0, 0)
	want.FailLink(Down, 0, 0, 0)
	if !s.Equal(want) {
		t.Fatal("drained degraded state differs from fresh-plus-faults")
	}
}

// BenchmarkAvailBothIntoFaulted measures the hot-path availability AND
// on a state with an active fault mask; compare with
// BenchmarkAvailBothIntoHealthy — the mask is folded into the
// allocation bits at FailLink time, so both must cost the same (and
// allocate nothing; ~11 % apart when recorded — historical, 1 CPU, see
// EXPERIMENTS E17).
func BenchmarkAvailBothIntoFaulted(b *testing.B) {
	s := newState(b, 2, 64, 64)
	for p := 0; p < 64; p += 7 {
		s.FailLink(Up, 0, p%64, p)
		s.FailLink(Down, 0, (p+13)%64, p)
	}
	dst := bitvec.New(s.Tree().Parents())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AvailBothInto(dst, 0, i%64, (i+7)%64)
	}
}

func BenchmarkAvailBothIntoHealthy(b *testing.B) {
	s := newState(b, 2, 64, 64)
	dst := bitvec.New(s.Tree().Parents())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AvailBothInto(dst, 0, i%64, (i+7)%64)
	}
}
