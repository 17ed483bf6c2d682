package federation

// The reference router: what a Router does, stated the plain way. One
// reference fabric per plane (fabrictest.Ref); each policy's order by its
// definition; the walk that asks first the planes whose rows would route the
// pair, then the rest, then, when none granted, each full plane again whose
// rows route the pair; the breaker as a failure streak, an EWMA score and a
// state that opens, elects one probe per probe interval and closes;
// migration of a circuit a plane retires as one more walk that skips that
// plane. Time is the reference's own clock, now, which the generator
// (generator_test.go) moves with the router's; no goroutine, no view.

import (
	"fmt"
	"slices"
	"sort"
	"time"

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
	breaker                   int32 // bClosed, bOpen or bHalfOpen
	lastProbe                 int64 // UnixNano of the last ejection or probe election
	degraded                  bool
	// The calls the plane's surface receives.
	routables, admits uint64
}

// refRouter is the reference router.
type refRouter struct {
	cfg    Config // resolved
	planes []*refPlane
	rr     uint64
	// start is the router clock's time at the start; now the time since.
	start time.Time
	now   time.Duration
	// Router counters.
	offered, granted, rejected, cancelled, failovers, readmitted, lost uint64
	// looks counts the second looks applied.
	looks uint64
}

// nowNano is the reference's time as the router's clock reads it.
func (o *refRouter) nowNano() int64 { return o.start.Add(o.now).UnixNano() }

// sample folds a health sample into the score at time now: a grant's 1
// ends the streak and closes the breaker; a failure's 0 lengthens the
// streak, re-opens a half-open breaker, and opens a closed one on a streak
// of 3 or a score under 0.15, the EWMA weighing each sample 0.2. An open
// breaker stays as it is.
func (p *refPlane) sample(s float64, now int64) {
	p.health = 0.8*p.health + 0.2*s
	if s == 1 {
		p.streak, p.breaker = 0, bClosed
		return
	}
	p.streak++
	switch {
	case p.breaker == bHalfOpen:
		p.eject(now)
	case p.breaker == bClosed && (p.streak >= 3 || p.health < 0.15):
		p.scoreOpens += b2u(p.streak < 3)
		p.eject(now)
	}
}

// eject opens the breaker and restarts the probe clock; only a transition
// into open counts as an opening.
func (p *refPlane) eject(now int64) {
	p.opens += b2u(p.breaker != bOpen)
	p.breaker, p.lastProbe = bOpen, now
}

// due reports whether an ejected plane's probe is due at now: 50 ms since
// its ejection or its last probe election.
func (p *refPlane) due(now int64) bool {
	return p.breaker != bClosed && now-p.lastProbe >= int64(50*time.Millisecond)
}

// candidates is the planes an admission considers: the closed-breaker
// planes in policy order, then the ejected planes whose probe is due, in
// index order — or, with neither, every plane in policy order. rot is
// where a round-robin or random order starts. probes are the due planes,
// whose election the walk's apply makes.
func (o *refRouter) candidates(src, dst, rot int) (order, probes []int) {
	var cand, all []int
	for i, p := range o.planes {
		switch {
		case p.breaker == bClosed:
			cand = append(cand, i)
		case p.due(o.nowNano()):
			probes = append(probes, i)
		}
		all = append(all, i)
	}
	if len(cand) == 0 && len(probes) == 0 {
		cand = all
	}
	n := len(cand)
	rotated := func(k int) []int { return slices.Concat(cand[k%n:], cand[:k%n]) }
	switch {
	case n <= 1:
	case o.cfg.Policy == PolicyHash:
		cand = rotated(pairHash(src, dst))
	case o.cfg.Policy == PolicyLeastLoaded:
		load := func(pi int) int64 { return o.planes[pi].fab.Unavailable() }
		sort.SliceStable(cand, func(i, j int) bool { return load(cand[i]) < load(cand[j]) })
	default:
		cand = rotated(rot)
	}
	return slices.Concat(cand, probes), probes
}

// try is one plane a walk asks and the plane's verdict; a closed plane
// refuses as it drains.
type try struct {
	plane                             int
	predicted, blocked, closed, again bool // again: a second look
	out                               core.Outcome
}

// walk is one admission pass, planned on the reference before it is applied.
type walk struct {
	src, dst int
	order    []int
	probes   []int // planes whose probe election the walk makes
	asked    []int // planes asked Routable
	tries    []try
}

// plan walks the planes of order for src→dst, skipping skip (-1: none):
// the closed-breaker planes whose rows route the pair, as the walk reaches
// them, then everything it passed over, in order; then the second look, in
// order, at each plane that denied for contention, whose breaker that
// denial left closed and whose rows route the pair. The first grant ends
// the walk. With one candidate no rows are read and there is no second
// look. probes are the candidates' due probes.
func (o *refRouter) plan(src, dst, skip int, order, probes []int) *walk {
	w := &walk{src: src, dst: dst, order: order, probes: probes}
	hint := len(order) > 1
	routable := func(pi int) bool {
		w.asked = append(w.asked, pi)
		p := o.planes[pi]
		return p.blind || p.fab.Routable(src, dst)
	}
	full := map[int]bool{} // planes a second look may ask
	ask := func(pi int, predicted, again bool) (stop bool) {
		t := try{plane: pi, predicted: predicted, again: again}
		if fab := o.planes[pi].fab; fab.Closed {
			t.closed = true
		} else {
			t.out = fab.Try(src, dst)
			t.blocked = !t.out.Granted && fab.Blocked(src, dst)
		}
		w.tries = append(w.tries, t)
		// A contention denial closes a half-open breaker (an elected
		// probe's included); an open one stays open.
		b := o.planes[pi].breaker
		full[pi] = !t.closed && !t.blocked && (b != bOpen || slices.Contains(probes, pi))
		return t.out.Granted
	}
	var later []int
	for _, pi := range order {
		if pi == skip {
			continue
		}
		if hint && (o.planes[pi].breaker != bClosed || !routable(pi)) {
			later = append(later, pi)
			continue
		}
		if ask(pi, hint, false) {
			return w
		}
	}
	for _, pi := range later {
		if ask(pi, false, false) {
			return w
		}
	}
	for _, pi := range order {
		if hint && full[pi] && routable(pi) && ask(pi, true, true) {
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

// apply commits a planned walk: the probe elections, which move an open
// breaker to half-open and restart the probe clock, the round-robin tick,
// the counters and health samples of every plane tried, and a grant held
// under key.
func (o *refRouter) apply(w *walk, key any) error {
	now := o.nowNano()
	for _, pi := range w.probes {
		p := o.planes[pi]
		p.lastProbe = now
		if p.breaker == bOpen {
			p.breaker = bHalfOpen
		}
	}
	if o.cfg.Policy == PolicyRoundRobin && len(w.order)-len(w.probes) > 1 {
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
		o.looks += b2u(t.again)
		switch {
		case t.out.Granted:
			p.sample(1, now)
			p.grants++
			return p.fab.Hold(key, w.src, w.dst, t.out.Ports)
		case t.blocked || t.closed:
			p.sample(0, now)
		default: // contention is no health sample, but it settles a probe
			p.hintMisses += b2u(t.predicted)
			if p.breaker == bHalfOpen {
				p.breaker = bClosed
			}
		}
	}
	return nil
}
