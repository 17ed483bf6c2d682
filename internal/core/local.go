package core

import "repro/internal/linkstate"

// Local is the conventional adaptive scheduler the paper compares against:
// upward ports are chosen using only the local switch's Ulink vector, so a
// request commits to an up-path before knowing whether the forced
// down-path (Theorem 2) is free. Conflicts surface while descending; a
// request that cannot complete is torn down (its channels released) and
// counted as failed.
//
// With Policy == FirstFit this is the paper's "greedy" local scheduler;
// with Policy == RandomFit it is the "random" adaptive one.
type Local struct {
	Opts Options
}

// NewLocalGreedy returns the greedy local baseline (first-fit ports).
func NewLocalGreedy() *Local { return &Local{} }

// NewLocalRandom returns the random adaptive baseline with a fixed seed.
func NewLocalRandom() *Local { return &Local{Opts: Options{Policy: RandomFit}} }

// Name identifies the scheduler in results and reports.
func (s *Local) Name() string {
	n := "local/" + s.Opts.Policy.String()
	if s.Opts.Retries > 0 {
		n += "/retry"
	}
	return n
}

// Schedule routes the batch, mutating st.
func (s *Local) Schedule(st *linkstate.State, reqs []Request) *Result {
	tree := st.Tree()
	rng := s.Opts.rng()
	outs := NewOutcomes(tree, reqs)
	order := OrderIndices(tree, reqs, s.Opts.Order, rng)
	var ops Counters
	for _, i := range order {
		o := &outs[i]
		if o.H == 0 {
			o.Granted = true
			continue
		}
		k := Scorer{Policy: s.Opts.Policy, Rand: rng}
		for attempt := 0; ; attempt++ {
			if s.tryOne(st, o, k, &ops) {
				break
			}
			if attempt >= s.Opts.Retries {
				break
			}
			// Deterministic retries would repeat the same failure, so
			// further attempts explore randomly.
			k.Policy = RandomFit
			o.Ports = o.Ports[:0]
			o.FailLevel = -1
			o.FailDown = false
		}
	}
	return finish(s.Name(), outs, ops)
}

// tryOne makes one attempt to route o, picking each upward port with k
// from the local Ulink word alone and testing the forced Dlink bit on the
// way down. On failure every channel the attempt claimed is released (the
// connection is not established, so it holds nothing) and false is
// returned.
func (s *Local) tryOne(st *linkstate.State, o *Outcome, k Scorer, ops *Counters) bool {
	tree := st.Tree()

	// Climb: choose from the locally visible upward links only. The
	// cursor advances both sides in lockstep, so the mirror switch each
	// level forces (needed for the top-down descent) is recorded as the
	// climb passes it.
	var cur RouteCursor
	cur.Start(tree, o.Src, o.Dst)
	deltas := make([]int, o.H) // mirror switch at each level
	for h := 0; h < o.H; h++ {
		uw, _ := st.LevelWords(h)
		ops.VectorReads++
		ops.Steps++
		p := k.Pick(st, h, cur.Sigma(), cur.Delta(), uw[cur.Sigma()])
		ops.PortPicks++
		if p < 0 {
			o.FailLevel = h
			s.teardown(st, o, -1, ops)
			return false
		}
		mustAllocate(st, linkstate.Up, h, cur.Sigma(), p)
		ops.Allocs++
		o.Ports = append(o.Ports, p)
		deltas[h] = cur.Delta()
		cur.Advance(p)
	}

	// Descend: the path is forced (Theorem 2 — same port index at the
	// mirror switches). Walk top-down, as the physical circuit would.
	for h := o.H - 1; h >= 0; h-- {
		_, dw := st.LevelWords(h)
		ops.VectorReads++
		ops.Steps++
		if dw[deltas[h]]>>uint(o.Ports[h])&1 == 0 {
			o.FailLevel = h
			o.FailDown = true
			s.teardown(st, o, h, ops)
			return false
		}
		mustAllocate(st, linkstate.Down, h, deltas[h], o.Ports[h])
		ops.Allocs++
	}
	o.Granted = true
	return true
}

// teardown releases an attempt's claims by replaying its climb with a
// route cursor: every upward channel the attempt took, and the downward
// channels at levels above failDown (the descent allocates from the top
// level downward, so levels at or below the failure were never claimed).
// failDown == -1 means the descent never started.
func (s *Local) teardown(st *linkstate.State, o *Outcome, failDown int, ops *Counters) {
	var c RouteCursor
	c.Start(st.Tree(), o.Src, o.Dst)
	c.Walk(o.Ports, func(h, sigma, delta, p int) {
		mustRelease(st, linkstate.Up, h, sigma, p)
		ops.Releases++
		if failDown >= 0 && h > failDown {
			mustRelease(st, linkstate.Down, h, delta, p)
			ops.Releases++
		}
	})
	o.Ports = o.Ports[:0]
}
