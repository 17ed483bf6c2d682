package core

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/linkstate"
	"repro/internal/topology"
)

// MulticastRequest is a one-to-many connection: the source streams the
// same data to every destination simultaneously, with switches
// replicating flits down a tree of channels. Collective operations
// (broadcast, barrier release, snoop invalidation) motivate it; the
// paper's Level-wise idea extends to it naturally (see MulticastLevelWise)
// because Theorem 2 applies per destination.
type MulticastRequest struct {
	Src  int
	Dsts []int
}

// MulticastOutcome records the scheduling of one multicast.
type MulticastOutcome struct {
	MulticastRequest
	// H is the tree height needed: the maximum ancestor level over
	// destinations (0 when every destination shares the source switch).
	H       int
	Granted bool
	// Ports holds the upward port per level 0..H-1 (Theorem 2: the same
	// index steers every destination's downward branch at that level).
	Ports     []int
	FailLevel int
}

// MulticastResult is the outcome of a multicast batch.
type MulticastResult struct {
	Scheduler string
	Outcomes  []MulticastOutcome
	Granted   int
	Total     int
}

// Ratio returns granted/total (1 for an empty batch).
func (r *MulticastResult) Ratio() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.Granted) / float64(r.Total)
}

// MulticastLevelWise schedules one-to-many connections with global
// information. At level h the up-port must be free at the source-side
// switch AND the corresponding downward channel must be free at the
// mirror switch of *every* destination whose branch is still above level
// h — a single AND across 1 + |distinct mirrors| vectors. Destinations
// sharing a mirror switch share the downward channel (the switch
// replicates), so the allocation is a proper tree.
type MulticastLevelWise struct {
	// Rollback releases a failed multicast's partial tree (default on:
	// multicast trees are large, leaking them would be pathological).
	NoRollback bool
}

// Name identifies the scheduler.
func (s *MulticastLevelWise) Name() string { return "multicast/level-wise" }

// MulticastLocal is the blind baseline: up-ports chosen from the local
// Ulink only; the forced downward tree is checked (and claimed) after the
// fact, failing on the first occupied branch channel.
type MulticastLocal struct{}

// Name identifies the scheduler.
func (s *MulticastLocal) Name() string { return "multicast/local" }

// multicastPlan computes, per level, the distinct mirror switches whose
// downward channel the tree needs at that level, given up-ports chosen so
// far. Branch b (destination d) needs the level-h channel only when
// h < AncestorLevel(src, d).
type mcBranch struct {
	dst int
	h   int // ancestor level for this destination
	// cur tracks this branch's mirror walk; only its delta side climbs
	// (AdvanceDelta) — the shared source spine is tracked separately.
	cur RouteCursor
}

func newBranches(tree *topology.Tree, req MulticastRequest) ([]mcBranch, int) {
	maxH := 0
	var branches []mcBranch
	seen := map[int]bool{}
	for _, d := range req.Dsts {
		if seen[d] {
			continue // duplicate destination: one branch suffices
		}
		seen[d] = true
		h := tree.AncestorLevel(req.Src, d)
		if h == 0 {
			continue // same switch: served by the crossbar
		}
		b := mcBranch{dst: d, h: h}
		b.cur.Start(tree, req.Src, d)
		branches = append(branches, b)
		if h > maxH {
			maxH = h
		}
	}
	return branches, maxH
}

// distinctMirrors returns the distinct delta switches of branches alive
// at level h, sorted for deterministic allocation order.
func distinctMirrors(branches []mcBranch, h int) []int {
	set := map[int]bool{}
	for _, b := range branches {
		if h < b.h {
			set[b.cur.Delta()] = true
		}
	}
	out := make([]int, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// Schedule routes the batch, mutating st.
func (s *MulticastLevelWise) Schedule(st *linkstate.State, reqs []MulticastRequest) *MulticastResult {
	tree := st.Tree()
	res := &MulticastResult{Scheduler: s.Name(), Total: len(reqs)}
	for _, req := range reqs {
		o := MulticastOutcome{MulticastRequest: req, FailLevel: -1}
		branches, maxH := newBranches(tree, req)
		o.H = maxH
		var spine RouteCursor
		spine.Start(tree, req.Src, req.Src)
		var claims []mcClaim
		ok := true
		for h := 0; h < maxH; h++ {
			mirrors := distinctMirrors(branches, h)
			uw, dw := st.LevelWords(h)
			avail := uw[spine.Sigma()]
			for _, d := range mirrors {
				avail &= dw[d]
			}
			if avail == 0 {
				ok = false
				o.FailLevel = h
				break
			}
			p := bits.TrailingZeros64(avail)
			mustAllocate(st, linkstate.Up, h, spine.Sigma(), p)
			claims = append(claims, mcClaim{linkstate.Up, h, spine.Sigma(), p})
			for _, d := range mirrors {
				mustAllocate(st, linkstate.Down, h, d, p)
				claims = append(claims, mcClaim{linkstate.Down, h, d, p})
			}
			o.Ports = append(o.Ports, p)
			spine.Advance(p)
			for i := range branches {
				if h < branches[i].h {
					branches[i].cur.AdvanceDelta(p)
				}
			}
		}
		if ok {
			o.Granted = true
			res.Granted++
		} else if !s.NoRollback {
			for i := len(claims) - 1; i >= 0; i-- {
				c := claims[i]
				mustRelease(st, c.dir, c.h, c.idx, c.prt)
			}
			o.Ports = o.Ports[:0]
		}
		res.Outcomes = append(res.Outcomes, o)
	}
	return res
}

// Schedule routes the batch blindly, mutating st.
func (s *MulticastLocal) Schedule(st *linkstate.State, reqs []MulticastRequest) *MulticastResult {
	tree := st.Tree()
	res := &MulticastResult{Scheduler: s.Name(), Total: len(reqs)}
	for _, req := range reqs {
		o := MulticastOutcome{MulticastRequest: req, FailLevel: -1}
		branches, maxH := newBranches(tree, req)
		o.H = maxH
		var spine RouteCursor
		spine.Start(tree, req.Src, req.Src)
		var claims []mcClaim
		ok := true
		// Climb using local information only.
		for h := 0; h < maxH && ok; h++ {
			row := st.ULink(h, spine.Sigma())
			p := bits.TrailingZeros64(row)
			if row == 0 {
				ok = false
				o.FailLevel = h
				break
			}
			mustAllocate(st, linkstate.Up, h, spine.Sigma(), p)
			claims = append(claims, mcClaim{linkstate.Up, h, spine.Sigma(), p})
			o.Ports = append(o.Ports, p)
			spine.Advance(p)
		}
		// Claim the forced downward tree.
		if ok {
			for i := range branches {
				c := branches[i].cur // value copy: each branch replays independently
				for h := 0; h < branches[i].h && ok; h++ {
					p := o.Ports[h]
					if st.Available(linkstate.Down, h, c.Delta(), p) {
						mustAllocate(st, linkstate.Down, h, c.Delta(), p)
						claims = append(claims, mcClaim{linkstate.Down, h, c.Delta(), p})
					} else if !claimedByUs(claims, h, c.Delta(), p) {
						ok = false
						o.FailLevel = h
					}
					c.AdvanceDelta(p)
				}
				if !ok {
					break
				}
			}
		}
		if ok {
			o.Granted = true
			res.Granted++
		} else {
			for i := len(claims) - 1; i >= 0; i-- {
				c := claims[i]
				mustRelease(st, c.dir, c.h, c.idx, c.prt)
			}
			o.Ports = o.Ports[:0]
		}
		res.Outcomes = append(res.Outcomes, o)
	}
	return res
}

// mcClaim records one channel a multicast tree holds.
type mcClaim struct {
	dir         linkstate.Direction
	h, idx, prt int
}

// claimedByUs reports whether this multicast already claimed the down
// channel (branches sharing a mirror switch share the channel).
func claimedByUs(claims []mcClaim, h, idx, p int) bool {
	for _, c := range claims {
		if c.dir == linkstate.Down && c.h == h && c.idx == idx && c.prt == p {
			return true
		}
	}
	return false
}

// VerifyMulticast replays every granted multicast tree against a fresh
// link state: each tree's channels (one up per level, one down per
// distinct mirror per level) must be available and never shared between
// trees.
func VerifyMulticast(tree *topology.Tree, res *MulticastResult) error {
	st := linkstate.New(tree)
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if !o.Granted {
			if len(o.Ports) != 0 && o.FailLevel >= 0 && len(o.Ports) > o.FailLevel {
				return fmt.Errorf("core: multicast %d failed at level %d but holds %d ports", i, o.FailLevel, len(o.Ports))
			}
			continue
		}
		branches, maxH := newBranches(tree, o.MulticastRequest)
		if len(o.Ports) != maxH {
			return fmt.Errorf("core: multicast %d granted with %d ports, needs %d", i, len(o.Ports), maxH)
		}
		var spine RouteCursor
		spine.Start(tree, o.Src, o.Src)
		for h := 0; h < maxH; h++ {
			p := o.Ports[h]
			if err := st.Allocate(linkstate.Up, h, spine.Sigma(), p); err != nil {
				return fmt.Errorf("core: multicast %d: %v", i, err)
			}
			for _, d := range distinctMirrors(branches, h) {
				if err := st.Allocate(linkstate.Down, h, d, p); err != nil {
					return fmt.Errorf("core: multicast %d: %v", i, err)
				}
			}
			spine.Advance(p)
			for bi := range branches {
				if h < branches[bi].h {
					branches[bi].cur.AdvanceDelta(p)
				}
			}
		}
		// Every destination is reachable: a cursor started at (src, dst)
		// climbs both sides in lockstep with the shared ports, so after
		// b.h levels σ and δ must coincide at the common ancestor
		// (Theorem 2 per destination).
		for _, b := range branches {
			var bc RouteCursor
			bc.Start(tree, o.Src, b.dst)
			bc.Walk(o.Ports[:b.h], nil)
			if bc.Sigma() != bc.Delta() {
				return fmt.Errorf("core: multicast %d: branch to %d does not meet the source at level %d", i, b.dst, b.h)
			}
		}
	}
	granted := 0
	for i := range res.Outcomes {
		if res.Outcomes[i].Granted {
			granted++
		}
	}
	if granted != res.Granted {
		return fmt.Errorf("core: multicast result reports %d granted, outcomes show %d", res.Granted, granted)
	}
	return nil
}
