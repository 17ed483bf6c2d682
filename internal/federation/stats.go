package federation

// Federated observability: router-level counters plus a per-plane
// breakdown, the shape ftserve's /stats serves and bench/'s
// fed_degraded workload summarizes.

import (
	"fmt"

	"repro/internal/fabric"
)

// PlaneStats is one plane's view in a federated snapshot.
type PlaneStats struct {
	Name string `json:"name"`
	// Healthy is the router's admission-control view: false while the
	// plane's breaker is open or half-open (out of candidate selection).
	Healthy bool `json:"healthy"`
	// Health is the EWMA outcome score in [0, 1] (1 = pristine) and
	// Breaker the circuit-breaker state ("closed", "open", "half-open");
	// see health.go. Degraded reports an injected slow-plane process.
	Health   float64 `json:"health"`
	Breaker  string  `json:"breaker"`
	Degraded bool    `json:"degraded,omitempty"`
	// Opens counts the breaker's transitions into open: a streak or score
	// trip, a failed probe, a KillPlane of a plane not already open.
	Opens uint64 `json:"opens"`
	// Grants counts circuits the router placed on this plane (initial
	// admissions plus cross-plane re-admissions) — the load-spread
	// signal behind the imbalance ratio.
	Grants uint64 `json:"grants"`
	// HintMisses counts admissions this plane denied by contention although
	// its published rows (fabric.Surface.Routable) said the pair would
	// route, a second look's included — how stale the view ran. Rejections with few misses are pairs
	// the planes' rows already said no plane could route.
	HintMisses uint64 `json:"hint_misses"`
	// Occupancy is the plane's live occupied-channel gauge.
	Occupancy int64 `json:"occupancy"`
	// Fabric is the plane manager's full snapshot.
	Fabric fabric.Stats `json:"fabric"`
}

// Stats is a consistent-enough snapshot of the router: counters are
// read atomically but not mutually atomic (a connection in flight may
// be counted offered and not yet granted).
type Stats struct {
	Policy string `json:"policy"`
	// Offered counts Connect calls that entered plane selection, and each
	// ends in exactly one of Granted, Rejected (every candidate plane the
	// walk reached denied) or Cancelled (the caller's context or the
	// plane's admission timeout ended it): offered = granted + rejected +
	// cancelled once no Connect is in flight. Failovers counts the planes
	// admissions (and cross-plane re-admissions) actually tried after their
	// first.
	Offered   uint64 `json:"offered"`
	Granted   uint64 `json:"granted"`
	Rejected  uint64 `json:"rejected"`
	Cancelled uint64 `json:"cancelled"`
	Failovers uint64 `json:"failovers"`
	// Cross-plane migration accounting: every plane-terminal connection
	// with a live owner resolves into exactly one of Readmitted (moved
	// to a surviving plane) or Lost (ErrConnLost); PendingReadmits is
	// the in-flight difference.
	Readmitted      uint64 `json:"readmitted"`
	Lost            uint64 `json:"lost"`
	PendingReadmits int64  `json:"pending_readmits"`
	// Imbalance is the max/min ratio of per-plane grant counts, the
	// load-spread regression signal: 1.0 is a perfect spread. It is 0
	// (undefined) while any plane has zero grants, since the true ratio
	// is infinite and JSON cannot carry it.
	Imbalance float64      `json:"imbalance"`
	Planes    []PlaneStats `json:"planes"`
}

// Stats snapshots the router and every plane.
func (r *Router) Stats() Stats {
	s := Stats{
		Policy:          r.cfg.Policy.String(),
		Offered:         r.offered.Load(),
		Granted:         r.granted.Load(),
		Rejected:        r.rejected.Load(),
		Cancelled:       r.cancelled.Load(),
		Failovers:       r.failovers.Load(),
		Readmitted:      r.readmitted.Load(),
		Lost:            r.lost.Load(),
		PendingReadmits: r.pendingReadmits.Load(),
		Planes:          make([]PlaneStats, len(r.planes)),
	}
	var minG, maxG uint64
	for i, p := range r.planes {
		g := p.grants.Load()
		// Snapshot the fabric first: Stats drains the plane's parked
		// releases, so the occupancy gauge it carries reflects every
		// Release that returned before this call.
		fb := p.surf.Stats()
		s.Planes[i] = PlaneStats{
			Name:       p.name,
			Healthy:    !p.ejectedNow(),
			Health:     p.healthNow(),
			Breaker:    breakerName(p.breaker.Load()),
			Degraded:   p.degraded.Load() != nil,
			Opens:      p.opens.Load(),
			Grants:     g,
			HintMisses: p.hintMisses.Load(),
			Occupancy:  fb.Occupancy,
			Fabric:     fb,
		}
		if i == 0 || g < minG {
			minG = g
		}
		if g > maxG {
			maxG = g
		}
	}
	if minG > 0 {
		s.Imbalance = float64(maxG) / float64(minG)
	}
	return s
}

// CheckInvariants runs every plane's consistency check
// (fabric.Manager.CheckInvariants) and then the router's own identity,
// offered = granted + rejected + cancelled, returning the first violation.
// Like the planes' check it holds only on a quiescent router: no Connect in
// flight.
func (r *Router) CheckInvariants() error {
	for _, p := range r.planes {
		if c, ok := p.surf.(interface{ CheckInvariants() error }); ok {
			if err := c.CheckInvariants(); err != nil {
				return fmt.Errorf("federation: plane %q: %w", p.name, err)
			}
		}
	}
	o, g, rj, c := r.offered.Load(), r.granted.Load(), r.rejected.Load(), r.cancelled.Load()
	if o != g+rj+c {
		return fmt.Errorf("federation: offered %d != granted %d + rejected %d + cancelled %d", o, g, rj, c)
	}
	return nil
}

// PlaneHealth is one plane's entry in a Health report: the router's
// admission-control view plus the plane's own fault state, each field
// meaning what its namesake in PlaneStats (or PlaneStats.Fabric) means.
type PlaneHealth struct {
	Name     string
	Healthy  bool
	Health   float64
	Breaker  string
	Degraded bool
	Fabric   fabric.Health
}

// Health reports every plane's liveness state — what a probe needs to
// tell a clean federation from a degraded one — without the counters,
// histograms, and release drains of a full Stats snapshot.
func (r *Router) Health() []PlaneHealth {
	hs := make([]PlaneHealth, len(r.planes))
	for i, p := range r.planes {
		hs[i] = PlaneHealth{
			Name:     p.name,
			Healthy:  !p.ejectedNow(),
			Health:   p.healthNow(),
			Breaker:  breakerName(p.breaker.Load()),
			Degraded: p.degraded.Load() != nil,
			Fabric:   p.surf.Health(),
		}
	}
	return hs
}
