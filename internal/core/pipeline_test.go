package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/linkstate"
	"repro/internal/topology"
)

// wakeHelper wakes the level pipeline's helper, starting it on first use,
// and returns once it polls for jobs, so that the next batch the pipeline
// takes finds it awake.
func wakeHelper() {
	for !reserveHelper() {
		runtime.Gosched()
	}
	helper.busy.Store(false)
}

// helperGoroutines counts the goroutines running the level pipeline's
// helper loop.
func helperGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("core.helperLoop("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestLevelPipelineStartsOneHelper: a batch the pipeline does not take —
// below pipelineMin, at GOMAXPROCS 1, one link level, the arithmetic view,
// both stages on the caller — starts no helper, and one it takes starts
// the one process-wide helper and no second.
func TestLevelPipelineStartsOneHelper(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	before := helperGoroutines()
	if before > 1 {
		t.Fatalf("%d helpers running", before)
	}
	s := &LevelWise{Opts: Options{Rollback: true}}
	big := topology.MustNew(3, 16, 16)
	for _, c := range []struct {
		name   string
		tree   *topology.Tree
		n      int
		procs  int
		inline bool
	}{
		{"below pipelineMin", big, pipelineMin - 1, 0, false},
		{"GOMAXPROCS 1", big, big.Nodes(), 1, false},
		{"one link level", topology.MustNew(2, 64, 8), 4096, 0, false},
		{"arithmetic view", big.WithArithmeticCursor(), big.Nodes(), 0, false},
		{"inline", big, big.Nodes(), 0, true},
	} {
		func() {
			if c.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			}
			reqs := permBatch(c.tree, 1)
			for len(reqs) < c.n {
				reqs = append(reqs, reqs...)
			}
			s.scheduleInto(linkstate.New(c.tree), reqs[:c.n], NewScratch(), c.inline)
		}()
		if got := helperGoroutines(); got != before {
			t.Fatalf("%s: %d helpers running after the batch, %d before", c.name, got, before)
		}
	}
	// The first batch the pipeline would take starts the helper; the next
	// ones find it awake. Whether it claims a job before the caller takes
	// it back is up to the schedulers — a GC worker may hold the other CPU
	// for a while — so the batch goes again until it has.
	sc := NewScratch()
	st, reqs := linkstate.New(big), permBatch(big, 2)
	s.ScheduleInto(st, permBatch(big, 1), sc)
	served := false
	for attempt := 0; attempt < 200 && !served; attempt++ {
		st.Reset()
		wakeHelper()
		sc.pipe.state.Store(0)
		s.ScheduleInto(st, reqs, sc)
		served = sc.pipe.state.Load() == jobDone
	}
	if got := helperGoroutines(); got != 1 {
		t.Fatalf("%d helpers running after batches the pipeline takes, want 1", got)
	}
	if runtime.NumCPU() >= 2 && !served {
		t.Errorf("the awake helper served none of 200 batches")
	}
}

// TestLevelPipelineConcurrentCallers: several goroutines schedule
// 4096-request batches on their own states at once, each batch over what
// the earlier ones left held. The one helper serves whichever caller holds
// it and the others run the sequential sweep meanwhile, or take their job
// back; every Result and every final state equals the sequential sweep's,
// and there is still one helper. Run it under -race.
func TestLevelPipelineConcurrentCallers(t *testing.T) {
	const callers, rounds = 4, 4
	tree := topology.MustNew(3, 16, 16)
	batch := func(c, r int) []Request {
		if r%2 == 0 {
			return permBatch(tree, int64(10*c+r+1))
		}
		rng := rand.New(rand.NewSource(int64(10*c + r + 1)))
		reqs := make([]Request, tree.Nodes())
		for i := range reqs {
			reqs[i] = Request{Src: rng.Intn(tree.Nodes()), Dst: rng.Intn(tree.Nodes())}
		}
		return reqs
	}
	opts := func(c int) Options { return Options{Rollback: c%2 == 0} }
	newState := func(c int) *linkstate.State {
		st := linkstate.New(tree)
		if c%2 == 1 {
			st.TrackLoad()
		}
		return st
	}

	type round struct {
		outs    []Outcome
		granted int
		ops     Counters
	}
	copyRes := func(res *Result) round {
		outs := append([]Outcome(nil), res.Outcomes...)
		for i := range outs {
			outs[i].Ports = append([]int(nil), outs[i].Ports...)
		}
		return round{outs, res.Granted, res.Ops}
	}
	want := make([][]round, callers)
	wantSt := make([]*linkstate.State, callers)
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for c := range want {
			st, s, sc := newState(c), &LevelWise{Opts: opts(c)}, NewScratch()
			for r := 0; r < rounds; r++ {
				want[c] = append(want[c], copyRes(s.ScheduleInto(st, batch(c, r), sc)))
			}
			wantSt[c] = st
		}
	}()

	// A P for every caller and one for the helper: with fewer, the callers
	// hold every P through their level 0 and take each job back. Whether
	// the helper gets a CPU in time for a caller is up to the OS, so the
	// callers go again, checked as before, until it has served one or
	// twenty rounds have passed.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(callers + 1))
	batches := make([][][]Request, callers)
	for c := range batches {
		for r := 0; r < rounds; r++ {
			batches[c] = append(batches[c], batch(c, r))
		}
	}
	var served atomic.Int64
	for attempt := 0; attempt < 20 && served.Load() == 0; attempt++ {
		wakeHelper()
		var wg sync.WaitGroup
		errs := make([]error, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, s, sc := newState(c), &LevelWise{Opts: opts(c)}, NewScratch()
				for r := 0; r < rounds; r++ {
					sc.pipe.state.Store(0)
					got := copyRes(s.ScheduleInto(st, batches[c][r], sc))
					if sc.pipe.state.Load() == jobDone {
						served.Add(1)
					}
					if !reflect.DeepEqual(got, want[c][r]) {
						errs[c] = fmt.Errorf("caller %d round %d: result differs from the sequential sweep's", c, r)
						return
					}
				}
				if !st.Equal(wantSt[c]) {
					errs[c] = fmt.Errorf("caller %d: final link state differs from the sequential sweep's", c)
					return
				}
				wu, wd := wantSt[c].LoadSnapshot()
				gu, gd := st.LoadSnapshot()
				if !reflect.DeepEqual(gu, wu) || !reflect.DeepEqual(gd, wd) || st.LiveOccupancy() != wantSt[c].LiveOccupancy() {
					errs[c] = fmt.Errorf("caller %d: load counters differ from the sequential sweep's", c)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := helperGoroutines(); got != 1 {
		t.Fatalf("%d helpers running, want 1", got)
	}
	t.Logf("the helper ran stage B of %d batches", served.Load())
}
