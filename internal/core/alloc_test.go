package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/linkstate"
	"repro/internal/topology"
)

// permBatch builds a random permutation batch over the tree's nodes.
func permBatch(tree *topology.Tree, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(tree.Nodes())
	reqs := make([]Request, len(perm))
	for i, d := range perm {
		reqs[i] = Request{Src: i, Dst: d}
	}
	return reqs
}

// raceEnabled is set by race_test.go when the race detector is built in.
var raceEnabled bool

// TestScheduleIntoZeroAllocs is the arena regression guard: once the
// Scratch has warmed up, the Level-wise hot path must not allocate at all
// — zero allocations per request, per level, per epoch — on the
// sequential sweep and on the level pipeline alike.
func TestScheduleIntoZeroAllocs(t *testing.T) {
	tree := topology.MustNew(3, 8, 8)
	reqs := permBatch(tree, 1)
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"level-major", Options{}},
		{"level-major/rollback", Options{Rollback: true}},
		{"request-major", Options{Traversal: RequestMajor}},
		// A non-natural order gathers the worklist through the Scratch's
		// order buffer, which must be warm too.
		{"shuffled", Options{Order: ShuffledOrder, Rollback: true, Rand: rand.New(rand.NewSource(3))}},
		{"deepest-first", Options{Order: DeepestFirst, Rollback: true}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			if cfg.opts.Order == DeepestFirst {
				// sort.SliceStable's reflection swapper allocates a
				// constant amount per batch; the guard below is per run,
				// so only the allocation-free orders are asserted to be
				// exactly zero.
				t.Skip("DeepestFirst sorts with sort.SliceStable, which allocates per batch")
			}
			st := linkstate.New(tree)
			s := &LevelWise{Opts: cfg.opts}
			sc := NewScratch()
			st.Reset()
			s.ScheduleInto(st, reqs, sc) // warm the scratch to its high-water mark
			allocs := testing.AllocsPerRun(10, func() {
				st.Reset()
				s.ScheduleInto(st, reqs, sc)
			})
			if allocs != 0 {
				t.Fatalf("ScheduleInto allocated %.1f times per %d-request batch, want 0", allocs, len(reqs))
			}
		})
	}

	// A 4096-request permutation takes the level pipeline. AllocsPerRun
	// pins GOMAXPROCS to 1, where the pipeline does not engage, so the
	// mallocs are counted around the runs at GOMAXPROCS 2 or more; the
	// first batch starts the helper and warms the Scratch, the next ones
	// warm the hand-off.
	t.Run("pipelined", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector allocates on its own")
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
		big := topology.MustNew(3, 16, 16)
		reqs := permBatch(big, 1)
		st := linkstate.New(big)
		s := &LevelWise{Opts: Options{Rollback: true}}
		sc := NewScratch()
		s.ScheduleInto(st, reqs, sc)
		wakeHelper()
		for r := 0; r < 3; r++ {
			st.Reset()
			s.ScheduleInto(st, reqs, sc)
		}
		// Both stages on the caller: the pipeline's own buffers, counted
		// exactly.
		if allocs := testing.AllocsPerRun(10, func() {
			st.Reset()
			s.scheduleInto(st, reqs, sc, true)
		}); allocs != 0 {
			t.Fatalf("pipelined scheduleInto, helper absent, allocated %.1f times per %d-request batch, want 0", allocs, len(reqs))
		}
		// Stage B on the helper. A helper that parks allocates its channel
		// waiter now and then, on its own goroutine, and the count is
		// process-wide; an allocation of ScheduleInto's would show in every
		// window, so one clean window passes.
		const runs = 10
		least := uint64(1 << 63)
		for window := 0; window < 20 && least > 0; window++ {
			wakeHelper()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for r := 0; r < runs; r++ {
				st.Reset()
				s.ScheduleInto(st, reqs, sc)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		if least != 0 {
			t.Fatalf("pipelined ScheduleInto allocated %d times in %d %d-request batches, want 0", least, runs, len(reqs))
		}
	})

	// The delta path must hold the same bar: a full epoch of
	// departures (every previously granted route torn down via the
	// fault-aware ReleaseSurviving walk) plus a fresh arrival sweep,
	// against warm scratch, allocates nothing. The departures are
	// captured once from a warm-up pass — FirstFit is deterministic, so
	// re-granting the same batch re-creates exactly those routes.
	t.Run("incremental-delta", func(t *testing.T) {
		st := linkstate.New(tree)
		s := &LevelWise{Opts: Options{Rollback: true}}
		sc := NewScratch()
		res := s.ScheduleDeltaInto(st, reqs, nil, sc)
		var deps []Departure
		for _, o := range res.Outcomes {
			if o.Granted {
				deps = append(deps, Departure{Src: o.Src, Dst: o.Dst, Ports: append([]int(nil), o.Ports...)})
			}
		}
		s.ScheduleDeltaInto(st, nil, deps, sc) // drain; scratch is warm now
		allocs := testing.AllocsPerRun(10, func() {
			s.ScheduleDeltaInto(st, reqs, nil, sc)
			s.ScheduleDeltaInto(st, nil, deps, sc)
		})
		if allocs != 0 {
			t.Fatalf("ScheduleDeltaInto allocated %.1f times per grant+depart cycle, want 0", allocs)
		}
	})
}

// TestScratchNameFollowsScheduler: a Scratch handed from one scheduler to
// another stamps each Result with the name of the scheduler that produced
// it (the cached name is keyed on its owner, not on first use), and
// re-deriving it costs nothing while the owner stays the same.
func TestScratchNameFollowsScheduler(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	reqs := permBatch(tree, 1)
	st := linkstate.New(tree)
	plain := NewLevelWise()
	rollback := &LevelWise{Opts: Options{Rollback: true}}
	sc := NewScratch()
	for round := 0; round < 2; round++ {
		for _, s := range []*LevelWise{plain, rollback} {
			st.Reset()
			if got := s.ScheduleInto(st, reqs, sc).Scheduler; got != s.Name() {
				t.Fatalf("round %d: result of %q carries scheduler name %q", round, s.Name(), got)
			}
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		st.Reset()
		rollback.ScheduleInto(st, reqs, sc)
	})
	if allocs != 0 {
		t.Fatalf("ScheduleInto allocated %.1f times per batch with an unchanged owner, want 0", allocs)
	}
}

// TestScheduleIntoMatchesSchedule pins ScheduleInto (scratch reuse) to
// Schedule (fresh buffers): identical grants, ports, fail levels, and
// final link state, batch after batch on the same scratch.
func TestScheduleIntoMatchesSchedule(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	s1 := &LevelWise{Opts: Options{Rollback: true}}
	s2 := &LevelWise{Opts: Options{Rollback: true}}
	stA, stB := linkstate.New(tree), linkstate.New(tree)
	sc := NewScratch()
	for round := 0; round < 5; round++ {
		reqs := permBatch(tree, int64(round+1))
		want := s1.Schedule(stA, reqs)
		got := s2.ScheduleInto(stB, reqs, sc)
		if got.Granted != want.Granted || got.Total != want.Total {
			t.Fatalf("round %d: granted/total %d/%d, want %d/%d", round, got.Granted, got.Total, want.Granted, want.Total)
		}
		for i := range want.Outcomes {
			w, g := &want.Outcomes[i], &got.Outcomes[i]
			if w.Granted != g.Granted || w.FailLevel != g.FailLevel || fmt.Sprint(w.Ports) != fmt.Sprint(g.Ports) {
				t.Fatalf("round %d outcome %d: got %+v want %+v", round, i, *g, *w)
			}
		}
		if !stA.Equal(stB) {
			t.Fatalf("round %d: link states diverged", round)
		}
	}
}

// BenchmarkLevelWiseAllocs measures the hot path with a retained Scratch
// on one permutation per op; run with -benchmem, allocs/op must stay 0
// (the TestScheduleIntoZeroAllocs guard enforces it). FT(3,8,8)'s 512
// requests always take the sequential sweep; FT(3,16,16)'s 4096 take the
// level pipeline when run with -cpu 2 or more.
func BenchmarkLevelWiseAllocs(b *testing.B) {
	for _, sh := range [][3]int{{3, 8, 8}, {3, 16, 16}} {
		b.Run(fmt.Sprintf("FT%dx%dx%d", sh[0], sh[1], sh[2]), func(b *testing.B) {
			tree := topology.MustNew(sh[0], sh[1], sh[2])
			reqs := permBatch(tree, 1)
			st := linkstate.New(tree)
			s := &LevelWise{Opts: Options{Rollback: true}}
			sc := NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Reset()
				s.ScheduleInto(st, reqs, sc)
			}
			b.ReportMetric(float64(b.N)*float64(len(reqs))/b.Elapsed().Seconds(), "requests/s")
		})
	}
}
