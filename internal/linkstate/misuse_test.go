package linkstate

import (
	"strings"
	"sync"
	"testing"
)

// Misuse-path coverage: the error returns that schedulers (and the
// fabric serving layer) rely on to catch double allocation, release of a
// free channel, and AllocatePath's claim-rollback on partial failure.
// scripts/ci.sh runs these under the race detector.

func TestMisuseDoubleAllocate(t *testing.T) {
	s := newState(t, 3, 4, 4)
	if err := s.Allocate(Down, 1, 3, 2); err != nil {
		t.Fatal(err)
	}
	err := s.Allocate(Down, 1, 3, 2)
	if err == nil {
		t.Fatal("double allocate succeeded")
	}
	if !strings.Contains(err.Error(), "already occupied") {
		t.Errorf("double-allocate error %q lacks diagnosis", err)
	}
	if s.OccupiedCount() != 1 {
		t.Errorf("failed allocate changed occupancy: %d", s.OccupiedCount())
	}
}

func TestMisuseReleaseOfFree(t *testing.T) {
	s := newState(t, 3, 4, 4)
	for _, d := range []Direction{Up, Down} {
		err := s.Release(d, 1, 0, 1)
		if err == nil {
			t.Fatalf("release of free %s channel succeeded", d)
		}
		if !strings.Contains(err.Error(), "not occupied") {
			t.Errorf("release-of-free error %q lacks diagnosis", err)
		}
	}
	if s.OccupiedCount() != 0 {
		t.Errorf("failed releases changed occupancy: %d", s.OccupiedCount())
	}
	// Releasing a failed channel is also refused.
	s.FailLink(Up, 0, 0, 0)
	if err := s.Release(Up, 0, 0, 0); err == nil {
		t.Error("release of failed channel succeeded")
	}
}

// TestMisuseWordAllocateOfNonFree: the word allocation the scheduler
// kernel performs — AllocateWords on LevelWords rows, and AllocateBoth
// which wraps it — panics when the port is taken on either side or failed,
// and leaves both rows exactly as they were.
func TestMisuseWordAllocateOfNonFree(t *testing.T) {
	const h, sigma, delta, port = 1, 3, 5, 2
	for _, tc := range []struct {
		name string
		take func(s *State)
	}{
		{"up side occupied", func(s *State) { s.Allocate(Up, h, sigma, port) }},
		{"down side occupied", func(s *State) { s.Allocate(Down, h, delta, port) }},
		{"both sides occupied", func(s *State) { s.AllocateBoth(h, sigma, delta, port) }},
		{"up side failed", func(s *State) { s.FailLink(Up, h, sigma, port) }},
	} {
		for _, entry := range []struct {
			name  string
			alloc func(s *State)
		}{
			{"AllocateWords", func(s *State) {
				u, d := s.LevelWords(h)
				AllocateWords(&u[sigma], &d[delta], 1<<port)
			}},
			{"AllocateBoth", func(s *State) { s.AllocateBoth(h, sigma, delta, port) }},
		} {
			s := newState(t, 3, 4, 4)
			s.TrackLoad()
			tc.take(s)
			before, gauge := s.Snapshot(), s.LiveOccupancy()
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s, %s: allocation of a non-free port did not panic", tc.name, entry.name)
					}
					if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "non-free port 2") {
						t.Errorf("%s, %s: panic value %v lacks diagnosis", tc.name, entry.name, r)
					}
				}()
				entry.alloc(s)
			}()
			after := New(s.Tree())
			after.Restore(before)
			if !s.Equal(after) || s.LiveOccupancy() != gauge {
				t.Errorf("%s, %s: refused allocation changed the state", tc.name, entry.name)
			}
		}
	}
}

// TestAllocatePathRollback pre-occupies one channel partway along a
// routed path and checks AllocatePath fails atomically: every channel it
// claimed before the conflict is returned, leaving only the pre-occupied
// channel held.
func TestAllocatePathRollback(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  Direction
	}{
		{"up-conflict", Up},
		{"down-conflict", Down},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newState(t, 3, 4, 4)
			tree := s.Tree()
			src, dst := 0, tree.Nodes()-1 // maximal common-ancestor level
			h := tree.AncestorLevel(src, dst)
			ports := make([]int, h) // first-fit path: all port 0

			// Walk the path to the conflict level and occupy one channel
			// the allocation will need at the top level h-1.
			sigma, _ := tree.NodeSwitch(src)
			delta, _ := tree.NodeSwitch(dst)
			for lvl := 0; lvl < h-1; lvl++ {
				sigma = tree.UpParent(lvl, sigma, 0)
				delta = tree.UpParent(lvl, delta, 0)
			}
			idx := sigma
			if tc.dir == Down {
				idx = delta
			}
			if err := s.Allocate(tc.dir, h-1, idx, 0); err != nil {
				t.Fatal(err)
			}

			if err := s.AllocatePath(src, dst, ports); err == nil {
				t.Fatal("AllocatePath through an occupied channel succeeded")
			}
			if occ := s.OccupiedCount(); occ != 1 {
				t.Fatalf("partial failure leaked claims: %d channels occupied, want 1", occ)
			}
			// The state must be exactly as before the failed call: the
			// same request routed over port 1 at the top level succeeds.
			ports[h-1] = 1
			if err := s.AllocatePath(src, dst, ports); err != nil {
				t.Fatalf("alternate path after rollback: %v", err)
			}
			if err := s.ReleasePath(src, dst, ports); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllocatePathPortCountMismatch(t *testing.T) {
	s := newState(t, 3, 4, 4)
	if err := s.AllocatePath(0, s.Tree().Nodes()-1, []int{0}); err == nil {
		t.Error("short port list accepted")
	}
	if err := s.ReleasePath(0, s.Tree().Nodes()-1, []int{0}); err == nil {
		t.Error("short port list accepted by ReleasePath")
	}
	if s.OccupiedCount() != 0 {
		t.Errorf("mismatched calls changed occupancy: %d", s.OccupiedCount())
	}
}

// TestIndependentStatesConcurrently drives AllocatePath/ReleasePath on
// per-goroutine States in parallel. A State is documented as not safe
// for concurrent use, but distinct States must be fully independent —
// the race detector flags any hidden shared storage (e.g. the per-State
// scratch AND buffer leaking into a package global).
func TestIndependentStatesConcurrently(t *testing.T) {
	tree := newState(t, 3, 4, 4).Tree()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := New(tree)
			src, dst := g, tree.Nodes()-1-g
			ports := make([]int, tree.AncestorLevel(src, dst))
			for i := 0; i < 200; i++ {
				s.AvailBoth(0, 0, 1) // exercise the scratch buffer
				if err := s.AllocatePath(src, dst, ports); err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				if err := s.ReleasePath(src, dst, ports); err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
			}
			if s.OccupiedCount() != 0 {
				t.Errorf("goroutine %d: dirty state", g)
			}
		}(g)
	}
	wg.Wait()
}
