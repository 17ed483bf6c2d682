package experiments

// Extensions E17 and E21: the serving layer scheduling a degraded fabric.
// Both run on simulated time, as E4 does (churnCell): each cell is one
// fabric.Manager on a clock.Fake with BatchSize 1, so every Connect is its
// own epoch on the goroutine that drives the cell and never waits for a
// timer, and everything else — arrivals, holds and releases, the fault
// process, the fabric's own repair backoff, flap decay and quarantine
// probation — is a timer on that clock, fired in due order by Advance. A
// table is therefore a function of the seed alone.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/report"
	"repro/internal/topology"
)

// load is the offered load of a cell on FT(3,8,8): Poisson arrivals
// between uniform random endpoints every gap on average, each granted
// circuit held for an exponential time of mean hold, arrivals and fault
// processes running for loadHorizon.
type load struct{ gap, hold time.Duration }

// E17 offers ≈ 256 circuits at once on 512 nodes, enough that a fault
// costs grants; E21 offers ≈ 64, leaving idle trunks for a repair to
// avoid or prefer, which is what its reuse-cost arm measures.
var (
	chaosLoad = load{gap: 20 * time.Microsecond, hold: 5120 * time.Microsecond}
	grayLoad  = load{gap: 80 * time.Microsecond, hold: 5120 * time.Microsecond}
)

func (l load) String() string {
	return fmt.Sprintf("arrivals every %v, holds %v (means), for %v", l.gap, l.hold, loadHorizon)
}

const (
	loadHorizon = 400 * time.Millisecond
	// repairSpan is the fabric's repair backoff from first attempt to last:
	// 2 ms doubling over fabric.RepairRetries attempts, 2+4+…+128 ms. A
	// revocation made by the horizon resolves by the horizon plus this.
	repairSpan = 254 * time.Millisecond
)

// degradedTree is the fabric both studies run on.
func degradedTree() *topology.Tree { return topology.MustNew(3, 8, 8) }

// loadRun is one cell in progress: the manager, its clock, the arrival
// stream and what the arrivals' owners saw.
type loadRun struct {
	m     *fabric.Manager
	clk   *clock.Fake
	start time.Time
	load  load
	rng   *rand.Rand
	nodes int

	offered, granted int
	held             int // granted circuits whose hold has not ended
	lost             int // releases that found the repair loop had given up
	err              error
}

// newLoadRun builds a cell's manager from cfg (Clock and BatchSize are
// set here) and arms the first arrival of l; the caller arms the fault
// process and calls finish.
func newLoadRun(cfg fabric.Config, l load, seed int64) (*loadRun, error) {
	clk := clock.NewFake()
	cfg.Clock, cfg.BatchSize = clk, 1
	m, err := fabric.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &loadRun{m: m, clk: clk, start: clk.Now(), load: l, rng: rand.New(rand.NewSource(seed)), nodes: cfg.Tree.Nodes()}
	clk.AfterFunc(0, r.arrive)
	return r, nil
}

// running reports whether arrivals and fault processes still act: before
// the horizon and with nothing gone wrong.
func (r *loadRun) running() bool {
	return r.err == nil && r.clk.Now().Sub(r.start) < loadHorizon
}

// fail records the cell's first error.
func (r *loadRun) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// arrive offers one circuit and arms the next arrival. Every arrival draws
// the same four numbers whatever its verdict, so cells that share a seed
// offer the same stream however their fabrics answer it.
func (r *loadRun) arrive() {
	if !r.running() {
		return
	}
	src, dst := r.rng.Intn(r.nodes), r.rng.Intn(r.nodes)
	hold := time.Duration(r.rng.ExpFloat64()*float64(r.load.hold)) + 1
	gap := time.Duration(r.rng.ExpFloat64()*float64(r.load.gap)) + 1
	r.offered++
	h, err := r.m.Connect(context.Background(), src, dst)
	switch {
	case err == nil:
		r.granted++
		r.held++
		r.clk.AfterFunc(hold, func() {
			r.held--
			switch err := h.Release(); {
			case errors.Is(err, fabric.ErrUnroutableDegraded):
				r.lost++
			case err != nil:
				r.fail(err)
			}
		})
	case errors.Is(err, fabric.ErrUnroutable):
	default:
		r.fail(err)
	}
	r.clk.AfterFunc(gap, r.arrive)
}

// every calls f(0), f(1), … each period from one period in, while the cell
// runs.
func (r *loadRun) every(period time.Duration, f func(n int) error) {
	n := 0
	var tick func()
	tick = func() {
		if !r.running() {
			return
		}
		if err := f(n); err != nil {
			r.fail(err)
			return
		}
		n++
		r.clk.AfterFunc(period, tick)
	}
	r.clk.AfterFunc(period, tick)
}

// finish runs the cell to its horizon, heals and settles it, and returns
// the settled Stats. Settling is RepairAll, then advancing the clock until
// no repair is pending — within repairSpan, or the cell fails. The settled
// manager must pass CheckInvariants with every revocation resolved
// (revoked = repaired + repair_failed + repair_aborted) and repair attempts
// within revoked × RepairRetries. Then every circuit departs, and the
// closed manager must pass CheckInvariants, hold nothing, and have failed
// exactly the repairs whose owners were told so at release.
func (r *loadRun) finish() (fabric.Stats, error) {
	r.clk.Advance(loadHorizon)
	s, err := r.settle()
	for err == nil && r.err == nil && r.held > 0 {
		r.clk.Advance(time.Second) // only departures are left
	}
	if err == nil {
		err = r.err
	}
	if err == nil {
		err = r.m.Close(context.Background())
	}
	if err == nil {
		err = r.m.CheckInvariants()
	}
	if end := r.m.Stats(); err == nil && (end.Active != 0 || end.RepairFailed != uint64(r.lost)) {
		err = fmt.Errorf("fabric did not drain: %d active, %d repairs failed but %d owners told", end.Active, end.RepairFailed, r.lost)
	}
	return s, err
}

// settle heals the fabric and waits out its repairs; see finish.
func (r *loadRun) settle() (fabric.Stats, error) {
	if r.err != nil {
		return fabric.Stats{}, r.err
	}
	r.m.RepairAll()
	r.clk.Advance(0) // the epoch the healed capacity pokes
	s := r.m.Stats()
	for waited := time.Duration(0); s.PendingRepairs > 0; waited += time.Millisecond {
		if waited == repairSpan {
			return s, fmt.Errorf("repairs failed to settle: %d pending %v after healing", s.PendingRepairs, repairSpan)
		}
		r.clk.Advance(time.Millisecond)
		s = r.m.Stats()
	}
	// With no repair pending, CheckInvariants' revoked = repaired +
	// repair_failed + repair_aborted + pending leaves nothing unaccounted.
	if err := r.m.CheckInvariants(); err != nil {
		return s, err
	}
	if t := tallyOf(s); t.Attempts > t.bound() {
		return s, fmt.Errorf("%d repair attempts exceed the retry bound %d", t.Attempts, t.bound())
	}
	return s, nil
}

// schedulability is granted / offered over the cell's arrivals.
func (r *loadRun) schedulability() float64 { return float64(r.granted) / float64(r.offered) }

// RepairTally is a settled cell's repair accounting: every revocation
// resolves into Repaired, Failed (RepairRetries exhausted) or Aborted (the
// owner released it mid-repair), and Unaccounted, what is left, is 0.
// Attempts counts repair scheduling attempts, at most Revoked ×
// fabric.RepairRetries.
type RepairTally struct {
	Revoked, Repaired, Failed, Aborted uint64
	Unaccounted                        int64
	Attempts                           uint64
}

func tallyOf(s fabric.Stats) RepairTally {
	return RepairTally{
		Revoked: s.Revoked, Repaired: s.Repaired, Failed: s.RepairFailed, Aborted: s.RepairAborted,
		Unaccounted: int64(s.Revoked) - int64(s.Repaired) - int64(s.RepairFailed) - int64(s.RepairAborted),
		Attempts:    s.RepairAttempts,
	}
}

// bound is the retry bound on Attempts.
func (t RepairTally) bound() uint64 { return t.Revoked * fabric.RepairRetries }

// tallyHeader and cells are the tally's table columns.
var tallyHeader = []string{"revoked", "repaired", "failed", "aborted", "unaccounted", "attempts/bound"}

func (t RepairTally) cells() []string {
	return []string{fmt.Sprint(t.Revoked), fmt.Sprint(t.Repaired), fmt.Sprint(t.Failed), fmt.Sprint(t.Aborted),
		fmt.Sprint(t.Unaccounted), fmt.Sprintf("%d/%d", t.Attempts, t.bound())}
}

// ChaosCell is one failure rate of E17.
type ChaosCell struct {
	Rate  float64 // link failure rate p
	Sched float64 // granted / offered arrivals
	RepairTally
	RepairMS fabric.Dist // revoke-to-readmission latency, simulated ms
}

// chaosCycle is E17's fault period: fail at p, then repair everything one
// period later, and so on.
const chaosCycle = 20 * time.Millisecond

// ExtChaos (E17) schedules through a fabric whose links fail mid-run: every
// other chaosCycle a uniform random fraction p of links fails
// (faults.Uniform) and the cycles between repair everything, while the
// offered load churns. Revoked circuits are re-admitted by the fabric's
// repair loop. Every rate serves the same arrival stream, and a rate's
// fault sets contain the lower rates' (one seed per cycle for all rates).
func ExtChaos(seed int64) ([]ChaosCell, error) {
	tree := degradedTree()
	var cells []ChaosCell
	for _, p := range []float64{0, 0.02, 0.05, 0.1} {
		r, err := newLoadRun(fabric.Config{Tree: tree}, chaosLoad, seed)
		if err != nil {
			return nil, err
		}
		if p > 0 {
			r.every(chaosCycle, func(n int) error {
				if n%2 == 1 {
					r.m.RepairAll()
					return nil
				}
				_, _, err := r.m.Fail(faults.Uniform(tree, p, seed<<20+int64(n)))
				return err
			})
		}
		s, err := r.finish()
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos rate %g: %w", p, err)
		}
		cells = append(cells, ChaosCell{Rate: p, Sched: r.schedulability(), RepairTally: tallyOf(s), RepairMS: s.RepairLatencyMS})
	}
	return cells, nil
}

// CheckChaosClaims returns every way E17's cells miss the shape they
// should have (empty = all hold): schedulability falls as the failure rate
// rises, by less than the rate itself (the sweep routes around the mask),
// and every rate above 0 revokes circuits and repairs some.
func CheckChaosClaims(cells []ChaosCell) []string {
	var bad []string
	for i, c := range cells {
		if i > 0 && c.Sched >= cells[i-1].Sched {
			bad = append(bad, fmt.Sprintf("E17: schedulability %.4f at p=%g does not fall below %.4f at p=%g",
				c.Sched, c.Rate, cells[i-1].Sched, cells[i-1].Rate))
		}
		if c.Rate == 0 {
			continue
		}
		if drop := cells[0].Sched - c.Sched; drop >= c.Rate {
			bad = append(bad, fmt.Sprintf("E17: schedulability falls %.4f at p=%g, not less than p", drop, c.Rate))
		}
		if c.Revoked == 0 || c.Repaired == 0 {
			bad = append(bad, fmt.Sprintf("E17: p=%g revoked %d and repaired %d, want both above 0", c.Rate, c.Revoked, c.Repaired))
		}
	}
	return bad
}

// ChaosTable renders E17.
func ChaosTable(cells []ChaosCell) *report.Table {
	tb := report.NewTable("Extension E17: scheduling through link failures and repairs (FT(3,8,8), simulated time)",
		slices.Concat([]string{"failure rate p", "schedulability"}, tallyHeader, []string{"repair ms p50/p95"})...)
	for _, c := range cells {
		tb.AddRow(slices.Concat([]string{fmt.Sprintf("%.2f", c.Rate), fmt.Sprintf("%.4f", c.Sched)}, c.cells(),
			[]string{fmt.Sprintf("%.2f/%.2f", c.RepairMS.P50, c.RepairMS.P95)})...)
	}
	tb.AddNote("%v; fail at p / repair all every %v; each rate then heals, settles and passes CheckInvariants", chaosLoad, chaosCycle)
	claimNote(tb, CheckChaosClaims(cells))
	return tb
}

// claimNote appends a shape check's verdict to its table.
func claimNote(tb *report.Table, bad []string) {
	if len(bad) == 0 {
		tb.AddNote("shape check: all claims hold")
		return
	}
	for _, b := range bad {
		tb.AddNote("shape check violated: %s", b)
	}
}

// The flaky-link process of E21 and the damping that bounds it: a flaky
// link is down at each grayStep with probability grayDuty, and a channel
// whose decayed flap count reaches grayThreshold is quarantined.
const (
	grayStep      = 2 * time.Millisecond
	grayDuty      = 0.5
	grayThreshold = 3
	grayReuse     = 4 // the reuse-cost cap of the second arm
)

// GrayCell is one (flaky rate, reuse-cost arm) point of E21.
type GrayCell struct {
	Rate  float64 // flaky link selection probability
	Reuse int     // reuse-cost cap (0 = first fit)
	Sched float64
	RepairTally
	Quarantines uint64 // quarantine entries
	// OnHeldTrunk counts the repairs that landed on a trunk already
	// carrying held circuits: the reuse-cost placement signal.
	OnHeldTrunk   uint64
	ChurnPerEpoch float64 // routes torn down or set up per epoch
}

// SlowPlaneCell is E21's federated point: a two-plane router whose plane0
// answers half its admissions after an injected delay.
type SlowPlaneCell struct {
	Offered, Granted, Failovers uint64
	SlowAdmits                  int // admissions that paid slowDelay
	DegradedHealth              float64
	DegradedBreaker             string
	HealthyHealth               float64
}

// GrayResult is E21: the flaky-link sweep and the slow-plane point.
type GrayResult struct {
	Cells []GrayCell
	Slow  SlowPlaneCell
}

// ExtGray (E21) schedules through gray failures: a seeded fraction of links
// flap (faults.FlakyLinks driven by a faults.Flapper every grayStep) under
// the offered load, with flap damping on. Each rate runs with reuse-cost
// repair placement off and on over the same arrivals and the same flaps
// (the processes are counter-mode hashes), and a rate's flaky links
// contain the lower rates'. A two-plane federation with one slow-but-alive
// plane closes the study.
func ExtGray(seed int64) (GrayResult, error) {
	tree := degradedTree()
	var res GrayResult
	for _, p := range []float64{0, 0.02, 0.05, 0.1} {
		for _, reuse := range []int{0, grayReuse} {
			c, err := grayCell(tree, p, reuse, seed)
			if err != nil {
				return GrayResult{}, fmt.Errorf("experiments: gray rate %g reuse %d: %w", p, reuse, err)
			}
			res.Cells = append(res.Cells, c)
		}
	}
	var err error
	if res.Slow, err = slowPlane(seed); err != nil {
		return GrayResult{}, fmt.Errorf("experiments: gray slow plane: %w", err)
	}
	return res, nil
}

// grayCell runs one (rate, arm) point.
func grayCell(tree *topology.Tree, p float64, reuse int, seed int64) (GrayCell, error) {
	spec := "level-wise,rollback"
	if reuse > 0 {
		spec += fmt.Sprintf(",reuse-cost=%d", reuse)
	}
	r, err := newLoadRun(fabric.Config{Tree: tree, SchedulerSpec: spec, FlapThreshold: grayThreshold}, grayLoad, seed)
	if err != nil {
		return GrayCell{}, err
	}
	if procs := faults.FlakyLinks(tree, p, grayDuty, seed<<20); len(procs) > 0 {
		fl := faults.NewFlapper(procs)
		r.every(grayStep, func(int) error {
			fail, repair := fl.Step()
			if fail != nil {
				if _, _, err := r.m.Fail(fail); err != nil {
					return err
				}
			}
			if repair != nil {
				_, err := r.m.Repair(repair)
				return err
			}
			return nil
		})
	}
	s, err := r.finish()
	if err != nil {
		return GrayCell{}, err
	}
	return GrayCell{
		Rate: p, Reuse: reuse, Sched: r.schedulability(), RepairTally: tallyOf(s),
		Quarantines:   s.QuarantineEvents,
		OnHeldTrunk:   s.RepairedOnHeldTrunk,
		ChurnPerEpoch: float64(s.TornRoutes+s.EstablishedRoutes) / float64(max(s.Epochs, 1)),
	}, nil
}

// The slow-plane point: slowAdmits admissions on a round-robin pair of
// planes, at most one circuit per four nodes held (FIFO), plane0 delaying
// half its admissions by slowDelay.
const (
	slowAdmits = 400
	slowDelay  = 4 * time.Millisecond
)

// slowPlane runs E21's federated point on a fake clock. The injected delay
// is a timer on that clock, so each Connect runs on a client goroutine and
// the driver hands the clock over: while the Connect is in flight it
// advances by slowDelay each time the clock shows a timer armed — only the
// delay arms one here, as the planes run BatchSize 1 — and otherwise
// yields. Every slow admission thus lands slowDelay later, whatever the
// goroutines' interleaving.
func slowPlane(seed int64) (SlowPlaneCell, error) {
	clk := clock.NewFake()
	cfg := federation.Config{Policy: federation.PolicyRoundRobin, Clock: clk}
	tree := degradedTree()
	for i := 0; i < 2; i++ {
		cfg.Planes = append(cfg.Planes, federation.PlaneConfig{Fabric: fabric.Config{Tree: tree, BatchSize: 1}})
	}
	r, err := federation.New(cfg)
	if err != nil {
		return SlowPlaneCell{}, err
	}
	defer r.Close(context.Background())
	if err := r.SetDegraded("plane0", faults.DegradedPlane{
		AdmitLatency: faults.Duration(slowDelay), DutyCycle: 0.5, Seed: seed,
	}); err != nil {
		return SlowPlaneCell{}, err
	}
	type verdict struct {
		h   *federation.Handle
		err error
	}
	n := tree.Nodes()
	var held []*federation.Handle
	var out SlowPlaneCell
	for i := 0; i < slowAdmits; i++ {
		done := make(chan verdict, 1)
		go func() {
			h, err := r.Connect(context.Background(), i%n, (i*13+5)%n)
			done <- verdict{h, err}
		}()
		var v verdict
	wait:
		for {
			select {
			case v = <-done:
				break wait
			default:
			}
			if clk.Pending() > 0 {
				clk.Advance(slowDelay)
				out.SlowAdmits++
			} else {
				runtime.Gosched()
			}
		}
		switch {
		case v.err == nil:
			held = append(held, v.h)
		case !errors.Is(v.err, fabric.ErrUnroutable):
			return SlowPlaneCell{}, v.err
		}
		if len(held) > n/4 {
			if err := held[0].Release(); err != nil {
				return SlowPlaneCell{}, err
			}
			held = held[1:]
		}
	}
	for _, h := range held {
		if err := h.Release(); err != nil {
			return SlowPlaneCell{}, err
		}
	}
	if err := r.CheckInvariants(); err != nil {
		return SlowPlaneCell{}, err
	}
	s := r.Stats()
	out.Offered, out.Granted, out.Failovers = s.Offered, s.Granted, s.Failovers
	for _, ps := range s.Planes {
		if ps.Name == "plane0" {
			out.DegradedHealth, out.DegradedBreaker = ps.Health, ps.Breaker
		} else {
			out.HealthyHealth = ps.Health
		}
	}
	return out, nil
}

// CheckGrayClaims returns every way E21's cells miss the shape they should
// have (empty = all hold): every row accounts for each revoked connection
// and stays inside its retry bound, and every flaky rate above 0
// quarantines something.
func CheckGrayClaims(cells []GrayCell) []string {
	var bad []string
	for _, c := range cells {
		tag := fmt.Sprintf("E21: rate %g reuse %d", c.Rate, c.Reuse)
		if c.Unaccounted != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d connections unaccounted for", tag, c.Unaccounted))
		}
		if c.Attempts > c.bound() {
			bad = append(bad, fmt.Sprintf("%s: %d repair attempts over the bound %d", tag, c.Attempts, c.bound()))
		}
		if c.Rate > 0 && c.Quarantines == 0 {
			bad = append(bad, fmt.Sprintf("%s: no quarantine", tag))
		}
	}
	return bad
}

// GrayTable renders E21.
func GrayTable(res GrayResult) *report.Table {
	tb := report.NewTable("Extension E21: gray failures: flaky links, flap damping, repair placement (FT(3,8,8), simulated time)",
		slices.Concat([]string{"flaky rate", "reuse", "schedulability"}, tallyHeader,
			[]string{"quarantines", "held-trunk frac", "churn/epoch"})...)
	var held, repaired [2]uint64 // by arm: first fit, reuse cost
	for _, c := range res.Cells {
		arm := min(c.Reuse, 1)
		held[arm] += c.OnHeldTrunk
		repaired[arm] += c.Repaired
		tb.AddRow(slices.Concat([]string{fmt.Sprintf("%.2f", c.Rate), fmt.Sprint(c.Reuse), fmt.Sprintf("%.4f", c.Sched)}, c.cells(),
			[]string{fmt.Sprint(c.Quarantines), heldFraction(c.OnHeldTrunk, c.Repaired), fmt.Sprintf("%.3f", c.ChurnPerEpoch)})...)
	}
	tb.AddNote("%v; flaky links down with probability %g at each %v step, flap threshold %d", grayLoad, grayDuty, grayStep, grayThreshold)
	tb.AddNote("repairs on held trunks over every rate: %s with first fit, %s with reuse-cost=%d",
		heldFraction(held[0], repaired[0]), heldFraction(held[1], repaired[1]), grayReuse)
	s := res.Slow
	tb.AddNote("slow plane (two FT(3,8,8) planes, round robin): granted %d/%d, failovers %d, %d admissions delayed %v; plane0 health %.3f (%s), plane1 %.3f",
		s.Granted, s.Offered, s.Failovers, s.SlowAdmits, slowDelay, s.DegradedHealth, s.DegradedBreaker, s.HealthyHealth)
	claimNote(tb, CheckGrayClaims(res.Cells))
	return tb
}

// heldFraction renders repairs on held trunks as a fraction of repairs,
// "-" when nothing was repaired.
func heldFraction(held, repaired uint64) string {
	if repaired == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", float64(held)/float64(repaired))
}
