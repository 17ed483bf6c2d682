package linkstate

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/topology"
)

// TestLoadCountersDisabledByDefault pins the default: no tracking, zero
// readings, nil snapshots.
func TestLoadCountersDisabledByDefault(t *testing.T) {
	s := New(topology.MustNew(2, 4, 4))
	if s.LoadTracking() {
		t.Fatal("tracking enabled by default")
	}
	if err := s.Allocate(Up, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if s.LiveOccupancy() != 0 || s.TotalAllocs() != 0 || s.ChannelLoad(Up, 0, 0, 0) != 0 {
		t.Errorf("untracked state reported load: occ=%d total=%d chan=%d",
			s.LiveOccupancy(), s.TotalAllocs(), s.ChannelLoad(Up, 0, 0, 0))
	}
	if up, down := s.LoadSnapshot(); up != nil || down != nil {
		t.Error("untracked LoadSnapshot not nil")
	}
}

// TestLoadCountersTrackAllocateRelease covers the vector path: allocate
// increments the cumulative counter and the gauge, release decrements
// only the gauge.
func TestLoadCountersTrackAllocateRelease(t *testing.T) {
	s := New(topology.MustNew(2, 4, 4))
	s.TrackLoad()
	s.TrackLoad() // idempotent

	if err := s.Allocate(Up, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Allocate(Down, 0, 3, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.LiveOccupancy(); got != 2 {
		t.Errorf("LiveOccupancy = %d, want 2", got)
	}
	if got := s.ChannelLoad(Up, 0, 1, 2); got != 1 {
		t.Errorf("ChannelLoad(up) = %d, want 1", got)
	}
	if got := s.ChannelLoad(Down, 0, 3, 2); got != 1 {
		t.Errorf("ChannelLoad(down) = %d, want 1", got)
	}
	if err := s.Release(Up, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.LiveOccupancy(); got != 1 {
		t.Errorf("LiveOccupancy after release = %d, want 1", got)
	}
	// Cumulative counters never decrement.
	if got := s.ChannelLoad(Up, 0, 1, 2); got != 1 {
		t.Errorf("ChannelLoad after release = %d, want 1", got)
	}
	// Re-allocate: the counter keeps accumulating.
	if err := s.Allocate(Up, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.ChannelLoad(Up, 0, 1, 2); got != 2 {
		t.Errorf("ChannelLoad after re-allocate = %d, want 2", got)
	}
	if got := s.TotalAllocs(); got != 3 {
		t.Errorf("TotalAllocs = %d, want 3", got)
	}

	// Failed allocate/release attempts must not move any counter.
	before := s.LiveOccupancy()
	if err := s.Allocate(Up, 0, 1, 2); err == nil {
		t.Fatal("double allocate succeeded")
	}
	if err := s.Release(Down, 0, 0, 0); err == nil {
		t.Fatal("release of free channel succeeded")
	}
	if got := s.LiveOccupancy(); got != before {
		t.Errorf("failed ops moved the gauge: %d → %d", before, got)
	}
}

// TestLoadCountersWordPath covers AllocateBoth, the word fast path the
// scheduler hot loop uses.
func TestLoadCountersWordPath(t *testing.T) {
	s := New(topology.MustNew(2, 4, 4))
	s.TrackLoad()
	s.AllocateBoth(0, 0, 2, 1)
	if got := s.LiveOccupancy(); got != 2 {
		t.Errorf("LiveOccupancy = %d, want 2", got)
	}
	if s.ChannelLoad(Up, 0, 0, 1) != 1 || s.ChannelLoad(Down, 0, 2, 1) != 1 {
		t.Errorf("AllocateBoth counters: up=%d down=%d, want 1/1",
			s.ChannelLoad(Up, 0, 0, 1), s.ChannelLoad(Down, 0, 2, 1))
	}
	// The same allocation in the three parts a sweep with hoisted rows
	// performs: AllocateWords on the level's words, NoteAllocBoth per
	// claim, and one MoveOccupancy for the pass.
	u, d := s.LevelWords(0)
	AllocateWords(&u[1], &d[3], 1<<2)
	s.NoteAllocBoth(0, 1, 3, 2)
	if got := s.LiveOccupancy(); got != 2 {
		t.Errorf("LiveOccupancy = %d after NoteAllocBoth alone, want 2: the gauge is the pass's to move", got)
	}
	s.MoveOccupancy(2)
	if s.Available(Up, 0, 1, 2) || s.Available(Down, 0, 3, 2) {
		t.Error("AllocateWords on LevelWords rows left the channels available")
	}
	if got, want := s.LiveOccupancy(), int64(s.OccupiedCount()); got != 4 || want != 4 {
		t.Errorf("LiveOccupancy = %d, OccupiedCount = %d, want 4", got, want)
	}
	if s.ChannelLoad(Up, 0, 1, 2) != 1 || s.ChannelLoad(Down, 0, 3, 2) != 1 {
		t.Errorf("NoteAllocBoth counters: up=%d down=%d, want 1/1",
			s.ChannelLoad(Up, 0, 1, 2), s.ChannelLoad(Down, 0, 3, 2))
	}
}

// TestLoadGaugeMatchesOccupiedCount drives a mixed allocate/release/
// fail/repair/reset history and pins the O(1) gauge to the popcount
// truth at every step, and the lock-free Unavailable to the gauge plus
// the masked channels.
func TestLoadGaugeMatchesOccupiedCount(t *testing.T) {
	s := New(topology.MustNew(3, 4, 4))
	s.TrackLoad()
	check := func(step string) {
		t.Helper()
		if got, want := s.LiveOccupancy(), int64(s.OccupiedCount()); got != want {
			t.Fatalf("%s: gauge %d != OccupiedCount %d", step, got, want)
		}
		if got, want := s.Unavailable(), int64(s.OccupiedCount()+s.FailedCount()); got != want {
			t.Fatalf("%s: Unavailable %d != OccupiedCount + FailedCount %d", step, got, want)
		}
	}
	// 0 and 63 meet at the top: two levels, four channels.
	if err := s.AllocatePath(0, 63, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	check("allocate path")
	// Fail an occupied channel (the level-0 climb out of switch 0 uses
	// port 1): the allocation is forfeited and leaves the gauge.
	if free := s.FailLink(Up, 0, 0, 1); free {
		t.Fatal("expected the failed channel to be occupied")
	}
	check("fail occupied")
	// Fail a free channel: occupancy unchanged.
	s.FailLink(Down, 0, 0, 3)
	check("fail free")
	// The route's surviving channels go back on a faulted state (the
	// forfeited one is refused), and the word path claims around the mask.
	if err := s.ReleasePath(0, 63, []int{1, 2}); err == nil {
		t.Fatal("release across the failed channel succeeded")
	}
	check("release across a fault")
	s.AllocateBoth(0, 1, 2, 0)
	check("allocate both")
	if err := s.ReleaseHeld(4, 8, []int{0}); err != nil {
		t.Fatal(err)
	}
	check("release held")
	s.RepairLink(Up, 0, 0, 1)
	check("repair")
	s.Reset()
	check("reset")

	// Snapshot/restore rewinds the gauge with the bits.
	snap := s.Snapshot()
	if err := s.AllocatePath(0, 16, []int{0, 0}); err != nil {
		t.Fatal(err)
	}
	check("post-snapshot allocate")
	s.Restore(snap)
	check("restore")
}

// TestLoadCountersAtomicPaths races TryAllocate/AtomicRelease workers on
// a tracked state and checks the counters settle to the exact totals —
// the parallel racy engine's view of the counters, run under -race.
func TestLoadCountersAtomicPaths(t *testing.T) {
	s := New(topology.MustNew(2, 8, 8))
	s.TrackLoad()
	const workers = 8
	const rounds = 200
	var wins atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				port := r % 8
				if s.TryAllocate(Up, 0, 0, port) {
					wins.Add(1)
					s.AtomicRelease(Up, 0, 0, port)
				}
			}
		}()
	}
	wg.Wait()
	if got := s.LiveOccupancy(); got != 0 {
		t.Errorf("LiveOccupancy = %d after all released, want 0", got)
	}
	if got := s.TotalAllocs(); got != wins.Load() {
		t.Errorf("TotalAllocs = %d, want %d (successful claims)", got, wins.Load())
	}
}
