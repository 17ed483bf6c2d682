package federation

// Adaptive plane health: an EWMA score fed by admission outcomes and a
// half-open circuit breaker, replacing the binary ejected bit of the
// original router. The breaker hears faults, not load. A health sample is
// a grant (1) or a failure (0):
// a fault-blocked denial — the plane would deny the request with every
// circuit released (fabric.UnroutableError.FaultBlocked) — or any other
// failover-able error, such as a closed plane. A contention denial is no
// sample at all: a full plane is not a broken one, and at high load three
// contention denials in a row are routine (EXPERIMENTS E27, E28). The
// streak rule — ejectAfter consecutive failures opens the breaker — and
// the score rule — a plane whose score sinks under openBelow opens — both
// count failures only, and the score is exported per plane for operators
// (/stats, /healthz). From full health the streak rule always trips first
// (0.8³ = 0.512); the score rule opens a breaker a failure early after an
// outage has left the score low (EXPERIMENTS E35).
//
// Breaker state machine ("failure" as above):
//
//	closed ──(failure streak ≥ ejectAfter, or health < openBelow)──▶ open
//	open ──(probeInterval elapsed; single-flight election)──▶ half-open
//	half-open ──grant or contention denial──▶ closed
//	half-open ──failure──▶ open
//
// While open or half-open the plane receives no traffic except the
// elected probe admission (at most one per probeInterval on the router's
// Config.Clock, last in the candidate order). Any grant closes the
// breaker, and so does a probe the plane scheduled and found full; a
// failed probe re-opens it and restarts the probe clock. Every transition
// into open is counted (PlaneStats.Opens).

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
)

// The breaker's constants: the streak rule's length, the probe spacing,
// the score rule's EWMA smoothing factor and the score under which a
// closed breaker opens whatever the streak. A plane that cannot serve,
// every cross-subtree denial fault-blocked, opens within ejectAfter of its
// own denials; a full one never does.
const (
	ejectAfter    = 3
	probeInterval = 50 * time.Millisecond
	healthAlpha   = 0.2
	openBelow     = 0.15
)

// Breaker states (plane.breaker).
const (
	bClosed int32 = iota
	bOpen
	bHalfOpen
)

// breakerName renders a breaker state for stats.
func breakerName(s int32) string {
	switch s {
	case bClosed:
		return "closed"
	case bOpen:
		return "open"
	case bHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("breaker(%d)", s)
	}
}

// healthNow returns the plane's current EWMA health score in [0, 1].
func (p *plane) healthNow() float64 {
	return math.Float64frombits(p.health.Load())
}

// bumpHealth folds one outcome sample into the EWMA and returns the new
// score: a compare-and-swap loop, which skips the store when the score
// does not move — a healthy plane sits at exactly 1 and its grants then
// leave the shared cache line clean.
func (p *plane) bumpHealth(sample float64) float64 {
	for {
		old := p.health.Load()
		h := (1-healthAlpha)*math.Float64frombits(old) + healthAlpha*sample
		if bits := math.Float64bits(h); bits == old || p.health.CompareAndSwap(old, bits) {
			return h
		}
	}
}

// noteSuccess records a grant: the streak resets, the score pulls
// toward 1, and any open or half-open breaker closes. The streak and
// breaker are written only when they change, so back-to-back grants on a
// healthy plane share its health words read-only.
func (p *plane) noteSuccess() {
	if p.failStreak.Load() != 0 {
		p.failStreak.Store(0)
	}
	p.bumpHealth(1)
	if p.breaker.Load() != bClosed {
		p.breaker.Store(bClosed)
	}
}

// noteFailure records a failure — a fault-blocked denial or another
// failover-able error: the score pulls toward 0, and the breaker opens
// when the streak or score rule trips — or immediately when this was a
// half-open probe, restarting the probe clock; clk is read only then.
func (p *plane) noteFailure(clk clock.Clock) {
	streak := p.failStreak.Add(1)
	h := p.bumpHealth(0)
	switch p.breaker.Load() {
	case bHalfOpen:
		p.eject(clk.Now()) // the probe failed; wait out another interval
	case bClosed:
		if streak >= ejectAfter || h < openBelow {
			p.eject(clk.Now())
		}
	}
}

// noteContention records a contention denial, which is no health sample:
// streak and score stay where they are. The one thing it settles is a
// half-open probe — the plane scheduled the request and found it full,
// not broken — which closes; one CAS, and only a probe ever wins it.
func (p *plane) noteContention() {
	if p.breaker.Load() == bHalfOpen {
		p.breaker.CompareAndSwap(bHalfOpen, bClosed)
	}
}

// eject opens the breaker and starts the probe clock at now: the first
// re-admission probe is due one probeInterval later, not immediately. Only a
// transition into open counts as an opening — a KillPlane of an open plane,
// or a second of two concurrent failures that each saw the breaker closed,
// restarts the clock without counting one.
func (p *plane) eject(now time.Time) {
	p.lastProbe.Store(now.UnixNano())
	if p.breaker.Swap(bOpen) != bOpen {
		p.opens.Add(1)
	}
}

// ejectedNow reports whether the plane is out of normal candidate
// selection (breaker open or half-open).
func (p *plane) ejectedNow() bool { return p.breaker.Load() != bClosed }

// probeDue elects at most one re-admission probe per probeInterval, now
// being the time; the winning election moves an open breaker to half-open.
func (p *plane) probeDue(now time.Time) bool {
	ns, last := now.UnixNano(), p.lastProbe.Load()
	if ns-last < int64(probeInterval) || !p.lastProbe.CompareAndSwap(last, ns) {
		return false
	}
	p.breaker.CompareAndSwap(bOpen, bHalfOpen)
	return true
}

// resetHealth restores a plane to pristine: score 1, streak 0, breaker
// closed (RepairPlane's postcondition).
func (p *plane) resetHealth() {
	p.failStreak.Store(0)
	p.health.Store(math.Float64bits(1))
	p.breaker.Store(bClosed)
}

// SetDegraded installs (or replaces) a slow-but-alive process on the
// named plane: a DutyCycle fraction of its admissions incur
// AdmitLatency before reaching the plane: slow but alive, so its
// breaker stays closed — the gray-failure drill ftserve's degrade verb
// and E21's slow-plane point run.
func (r *Router) SetDegraded(name string, dp faults.DegradedPlane) error {
	p := r.planeByName(name)
	if p == nil {
		return fmt.Errorf("federation: unknown plane %q", name)
	}
	if err := dp.Validate(); err != nil {
		return err
	}
	dp.Plane = name
	p.degraded.Store(&dp)
	return nil
}

// ClearDegraded removes the plane's injected slow-plane process.
func (r *Router) ClearDegraded(name string) error {
	p := r.planeByName(name)
	if p == nil {
		return fmt.Errorf("federation: unknown plane %q", name)
	}
	p.degraded.Store(nil)
	return nil
}

// Degraded returns the plane's injected slow-plane process, nil when
// none is installed.
func (r *Router) Degraded(name string) *faults.DegradedPlane {
	if p := r.planeByName(name); p != nil {
		return p.degraded.Load()
	}
	return nil
}

// sleepInjected waits out an injected admit latency on clk, returning
// early if the caller's context ends first (the admission then fails on
// the context as usual).
func sleepInjected(ctx context.Context, clk clock.Clock, d time.Duration) {
	if d <= 0 {
		return
	}
	done := make(chan struct{})
	t := clk.AfterFunc(d, func() { close(done) })
	defer t.Stop()
	select {
	case <-done:
	case <-ctx.Done():
	}
}
