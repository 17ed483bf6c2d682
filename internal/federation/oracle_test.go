package federation

// The reference router: what a Router does, stated the plain way. One
// reference fabric per plane (fabrictest.Ref); each policy's order by its
// definition; the walk that asks first the planes whose rows would route the
// pair, then the rest; the breaker as a failure streak, an EWMA score and an
// open bit; migration of a circuit a plane retires as one more walk that
// skips that plane. No clock, no goroutine, no view: the generator
// (generator_test.go) runs planes whose outcomes never read the time.

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fabric/fabrictest"
)

// refPlane is one plane of the reference.
type refPlane struct {
	name  string
	fab   *fabrictest.Ref
	blind bool // its Routable says yes to every pair
	// What the router counts and keeps per plane.
	grants, hintMisses, opens uint64
	scoreOpens                uint64 // openings the streak alone would not have made yet
	streak                    int
	health                    float64
	open, degraded            bool
	// The calls the plane's surface receives.
	routables, admits uint64
}

// refRouter is the reference router.
type refRouter struct {
	cfg    Config // resolved
	planes []*refPlane
	rr     uint64
	// Router counters.
	offered, granted, rejected, cancelled, failovers, readmitted, lost uint64
}

// sample folds a health sample into the score: a grant's 1 ends the streak
// and closes the breaker; a failure's 0 lengthens the streak, and opens a
// closed breaker on a streak of EjectAfter or a score under 0.15, the EWMA
// weighing each sample 0.2.
func (p *refPlane) sample(cfg Config, s float64) {
	p.health = 0.8*p.health + 0.2*s
	if s == 1 {
		p.streak, p.open = 0, false
	} else if p.streak++; p.streak >= cfg.EjectAfter || p.health < 0.15 {
		p.scoreOpens += b2u(!p.open && p.streak < cfg.EjectAfter)
		p.eject()
	}
}

// eject opens the breaker; only a transition counts as an opening.
func (p *refPlane) eject() {
	p.opens += b2u(!p.open)
	p.open = true
}

// breaker names the breaker's state as Stats does.
func (p *refPlane) breaker() string { return map[bool]string{false: "closed", true: "open"}[p.open] }

// candidates is the planes an admission considers, in policy order: the
// closed-breaker planes, or every plane when all are open. rot is where a
// round-robin or random order starts.
func (o *refRouter) candidates(src, dst, rot int) []int {
	var cand, all []int
	for i, p := range o.planes {
		if !p.open {
			cand = append(cand, i)
		}
		all = append(all, i)
	}
	if len(cand) == 0 {
		cand = all
	}
	n := len(cand)
	if n <= 1 {
		return cand
	}
	rotated := func(k int) []int { return slices.Concat(cand[k%n:], cand[:k%n]) }
	switch o.cfg.Policy {
	case PolicyHash:
		return rotated(pairHash(src, dst))
	case PolicyLeastLoaded:
		load := func(pi int) int64 { return o.planes[pi].fab.Unavailable() }
		sort.SliceStable(cand, func(i, j int) bool { return load(cand[i]) < load(cand[j]) })
		return cand
	}
	return rotated(rot)
}

// try is one plane a walk asks and the plane's verdict; a closed plane
// refuses as it drains.
type try struct {
	plane                      int
	predicted, blocked, closed bool
	out                        core.Outcome
}

// walk is one admission pass, planned on the reference before it is applied.
type walk struct {
	src, dst int
	order    []int
	asked    []int // planes asked Routable
	tries    []try
}

// plan walks the planes of order for src→dst, skipping skip (-1: none):
// the closed-breaker planes whose rows route the pair, as the walk reaches
// them, then everything it passed over, in order; the first grant ends the
// walk. With one candidate no rows are read.
func (o *refRouter) plan(src, dst, skip int, order []int) *walk {
	w := &walk{src: src, dst: dst, order: order}
	hint := len(order) > 1
	ask := func(pi int, predicted bool) (stop bool) {
		t := try{plane: pi, predicted: predicted}
		if fab := o.planes[pi].fab; fab.Closed {
			t.closed = true
		} else {
			t.out = fab.Try(src, dst)
			t.blocked = !t.out.Granted && fab.Blocked(src, dst)
		}
		w.tries = append(w.tries, t)
		return t.out.Granted
	}
	var later []int
	for _, pi := range order {
		if pi == skip {
			continue
		}
		if p := o.planes[pi]; hint {
			if p.open {
				later = append(later, pi)
				continue
			}
			w.asked = append(w.asked, pi)
			if !p.blind && !p.fab.Routable(src, dst) {
				later = append(later, pi)
				continue
			}
		}
		if ask(pi, hint) {
			return w
		}
	}
	for _, pi := range later {
		if ask(pi, false) {
			return w
		}
	}
	return w
}

// grant is the plane a walk granted on, -1 for none.
func (w *walk) grant() int {
	if n := len(w.tries); n > 0 && w.tries[n-1].out.Granted {
		return w.tries[n-1].plane
	}
	return -1
}

// err is the denial a walk that granted nothing ends with: the last plane's.
func (w *walk) err() error {
	if len(w.tries) == 0 {
		return fmt.Errorf("federation: no candidate plane: %w", fabric.ErrUnroutable)
	}
	t := w.tries[len(w.tries)-1]
	if t.closed {
		return fabric.ErrDraining
	}
	return &fabric.UnroutableError{Src: w.src, Dst: w.dst, FailLevel: t.out.FailLevel, FaultBlocked: t.blocked}
}

// apply commits a planned walk: the round-robin tick, the counters and
// health samples of every plane tried, and a grant held under key.
func (o *refRouter) apply(w *walk, key any) error {
	if o.cfg.Policy == PolicyRoundRobin && len(w.order) > 1 {
		o.rr++
	}
	for _, pi := range w.asked {
		o.planes[pi].routables++
	}
	if n := len(w.tries); n > 1 {
		o.failovers += uint64(n - 1)
	}
	for _, t := range w.tries {
		p := o.planes[t.plane]
		p.admits++
		switch {
		case t.out.Granted:
			p.sample(o.cfg, 1)
			p.grants++
			return p.fab.Hold(key, w.src, w.dst, t.out.Ports)
		case t.blocked || t.closed:
			p.sample(o.cfg, 0)
		case t.predicted: // contention is no health sample
			p.hintMisses++
		}
	}
	return nil
}
