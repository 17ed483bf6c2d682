package linkstate

import (
	"sync"
	"testing"

	"repro/internal/topology"
)

// TestTryAllocateExclusive has 8 workers race to claim every up channel of
// one level; each channel must be claimed exactly once and the final
// occupancy must account for every win. Run with -race.
func TestTryAllocateExclusive(t *testing.T) {
	const workers = 8
	tree := topology.MustNew(3, 4, 4)
	s := New(tree)
	rows := tree.SwitchesAt(0)
	w := tree.Parents()
	winCounts := make([]int, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for idx := 0; idx < rows; idx++ {
				s.AvailBothAtomicWord(0, idx, idx)
				for p := 0; p < w; p++ {
					if s.TryAllocate(Up, 0, idx, p) {
						winCounts[wk]++
					}
				}
			}
		}(wk)
	}
	wg.Wait()
	total := 0
	for _, c := range winCounts {
		total += c
	}
	if want := rows * w; total != want {
		t.Fatalf("workers claimed %d channels, want exactly %d", total, want)
	}
	up, _ := s.LevelOccupancy(0)
	if up != rows*w {
		t.Fatalf("level 0 up occupancy %d, want %d", up, rows*w)
	}
}

// TestAtomicReleaseRoundTrip claims and returns channels concurrently and
// verifies the state ends fully available.
func TestAtomicReleaseRoundTrip(t *testing.T) {
	const workers = 8
	tree := topology.MustNew(2, 4, 4)
	s := New(tree)
	rows := tree.SwitchesAt(0)
	w := tree.Parents()
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				for idx := 0; idx < rows; idx++ {
					for p := 0; p < w; p++ {
						if s.TryAllocate(Down, 0, idx, p) {
							s.AtomicRelease(Down, 0, idx, p)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if occ := s.OccupiedCount(); occ != 0 {
		t.Fatalf("%d channels still occupied after all round trips", occ)
	}
}

func TestAtomicReleasePanicsOnFree(t *testing.T) {
	tree := topology.MustNew(2, 2, 2)
	s := New(tree)
	defer func() {
		if recover() == nil {
			t.Fatal("AtomicRelease of a free channel did not panic")
		}
	}()
	s.AtomicRelease(Up, 0, 0, 0)
}
