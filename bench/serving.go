package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// The three serving workloads share one closed-loop generator: callers of
// a circuit-setup service block until they have a verdict, so every client
// sends its next Connect only after the previous one returned. A client
// holds at most `hold` circuits, oldest released first, so the fabric sits
// at a steady occupancy set by clients x hold.

// grant is one circuit as the generator holds it: what it asked for, the
// route it was told at grant time, and the means to give it back.
type grant struct {
	src, dst int
	ports    []int
	conn     fabric.Conn // in-process targets
	id       uint64      // ftserve connection id
}

// errDenied is a clean unroutable denial: a verdict, not a failure.
var errDenied = errors.New("bench: denied")

// sysStats is the program's own accounting, per plane, plus the router's
// where there is one.
type sysStats struct {
	planes []fabric.Stats
	fed    *federation.Stats
	open   int // ftserve's id map size; -1 in process
}

// target is the system under test as one client sees it.
type target interface {
	connect(client, src, dst int) (grant, error)
	release(client int, g grant) error
	// planeOf names the plane carrying g, as an index into sysStats.planes.
	planeOf(g grant) int
	stats() (sysStats, error)
	// serverCPU is the CPU time of the process serving the requests when
	// that is not this one; 0 in process.
	serverCPU() (time.Duration, error)
	// memMB is the memory the system under test holds right now.
	memMB() (float64, error)
	stop() error
}

// servingSpec fixes one serving workload.
type servingSpec struct {
	layer   string // module the clients call into, for span names
	clients int
	hold    int
	// batch and maxWait are the epoch knobs of every plane, kept for the
	// timer-bound guard.
	batch   int
	maxWait time.Duration
	// build constructs the system under test; everything it does is set-up
	// time. faultSets (one per plane, nil where healthy) are replayed by
	// the invariant check.
	build func() (tgt target, faultSets []*faults.FaultSet, err error)
}

func newServingTree() *topology.Tree { return topology.MustNew(3, 8, 8) }

// clientRNG is client c's request stream for a seed: the only thing the
// seed decides.
func clientRNG(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000 + int64(c)))
}

// nextPair draws src != dst uniformly from n nodes.
func nextPair(rng *rand.Rand, n int) (src, dst int) {
	src = rng.Intn(n)
	dst = rng.Intn(n - 1)
	if dst >= src {
		dst++
	}
	return src, dst
}

type client struct {
	rng     *rand.Rand
	held    []grant // FIFO ring of capacity hold
	head, n int
	rec     recorder
}

func (c *client) push(g grant) {
	c.held[(c.head+c.n)%len(c.held)] = g
	c.n++
}

func (c *client) pop() grant {
	g := c.held[c.head]
	c.held[c.head] = grant{}
	c.head = (c.head + 1) % len(c.held)
	c.n--
	return g
}

type serving struct {
	spec servingSpec
	seed int64
	tree *topology.Tree

	tgt       target
	faultSets []*faults.FaultSet
	cl        []client
	before    sysStats // the program's counters at the start of the last round
	after     sysStats // and at its end, clients quiesced
	roundDur  time.Duration
	genCPU    time.Duration // CPU this process burned over the last round
	srvCPU    time.Duration // and ftserve, when it is the system under test
	problems  []string      // failures seen on the request path (bad route lengths)
	mu        sync.Mutex
}

func newServing(spec servingSpec, seed int64) *serving {
	return &serving{spec: spec, seed: seed, tree: newServingTree()}
}

func (s *serving) clients() int { return s.spec.clients }

func (s *serving) spanNames() [3]string {
	return [3]string{"loadgen.iter", s.spec.layer + ".release", s.spec.layer + ".connect"}
}

// warmupOps is the warm-up inside set-up, per client: a fixed number of
// closed-loop requests, enough to fill every hold and reach the occupancy
// the measured rounds keep, and enough work that set-up time is not just
// the wait for a few epoch timers. The clients draw from one shared budget
// so they all stop together: clients that finish early would leave the rest
// unable to fill an epoch, waiting out MaxWait on every request.
const warmupOps = 256

// setup builds the system and warms it up.
func (s *serving) setup() error {
	tgt, fs, err := s.spec.build()
	if err != nil {
		return err
	}
	s.tgt, s.faultSets = tgt, fs
	s.cl = make([]client, s.spec.clients)
	for c := range s.cl {
		s.cl[c] = client{rng: clientRNG(s.seed, c), held: make([]grant, s.spec.hold)}
	}
	warm := newWindow(1)
	warm.beginRound(1)
	warm.end = warm.start.Add(time.Hour) // bounded by warmupOps, not by time
	s.driveAll(warm, nil, warmupOps*len(s.cl))
	if e := warm.reduce(nil, 0.99); e.failed > 0 || e.granted == 0 {
		_ = s.tgt.stop() // already failing; the warm-up error is the one to report
		s.tgt = nil
		return fmt.Errorf("warm-up: %d of %d operations failed, %d granted: %v", e.failed, e.ops+e.failed, e.granted, s.problems)
	}
	return nil
}

// driveAll runs every client until the window's deadline or, when maxOps is
// positive, until they have issued that many requests between them.
func (s *serving) driveAll(w *window, tr *tracer, maxOps int) {
	var budget *atomic.Int64
	if maxOps > 0 {
		budget = new(atomic.Int64)
		budget.Store(int64(maxOps))
	}
	var wg sync.WaitGroup
	for c := range s.cl {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.drive(c, w, tr, budget)
		}(c)
	}
	wg.Wait()
}

func (s *serving) problem(format string, args ...any) {
	s.mu.Lock()
	if len(s.problems) < 16 {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
	s.mu.Unlock()
}

// round drives every client until the window's round deadline, then leaves
// them quiesced with their circuits held.
func (s *serving) round(w *window, tr *tracer) error {
	var err error
	if s.before, err = s.tgt.stats(); err != nil {
		return err
	}
	srv0, err := s.tgt.serverCPU()
	if err != nil {
		return err
	}
	gen0 := selfCPU()
	began := time.Now()
	s.driveAll(w, tr, 0)
	s.roundDur = time.Since(began)
	s.genCPU = selfCPU() - gen0
	srv1, err := s.tgt.serverCPU()
	if err != nil {
		return err
	}
	s.srvCPU = srv1 - srv0
	s.after, err = s.tgt.stats()
	return err
}

func (s *serving) drive(c int, w *window, tr *tracer, budget *atomic.Int64) {
	cl := &s.cl[c]
	cl.rec.attach(w)
	deadline := w.deadline()
	nodes := s.tree.Nodes()
	for now := time.Now(); now.Before(deadline) && (budget == nil || budget.Add(-1) >= 0); {
		// With a tracer, odd slices are traced and even ones are not, so
		// one round yields both sides of trace.overhead_frac.
		traced := tr != nil && cl.rec.idx&1 == 1
		var it iterRec
		if traced {
			it.start = tr.ns(now)
		}
		if cl.n == s.spec.hold {
			g := cl.pop()
			if traced {
				it.a[0] = tr.ns(time.Now())
			}
			err := s.tgt.release(c, g)
			if traced {
				it.a[1] = tr.ns(time.Now())
			}
			cl.rec.released()
			if err != nil {
				cl.rec.fail(time.Now())
				s.problem("client %d release %d->%d: %v", c, g.src, g.dst, err)
			}
		}
		src, dst := nextPair(cl.rng, nodes)
		t0 := time.Now()
		g, err := s.tgt.connect(c, src, dst)
		now = time.Now()
		switch {
		case err == nil && len(g.ports) != s.tree.AncestorLevel(src, dst):
			cl.rec.fail(now)
			s.problem("client %d grant %d->%d has %d ports, the route needs %d",
				c, src, dst, len(g.ports), s.tree.AncestorLevel(src, dst))
			cl.push(g)
		case err == nil:
			cl.rec.op(now, now.Sub(t0), 1, 1)
			cl.push(g)
		case errors.Is(err, errDenied):
			cl.rec.op(now, now.Sub(t0), 1, 0)
		default:
			cl.rec.fail(now)
			s.problem("client %d connect %d->%d: %v", c, src, dst, err)
		}
		if traced {
			it.b = [2]int64{tr.ns(t0), tr.ns(now)}
			it.end = tr.ns(time.Now())
			tr.add(c, it)
		}
	}
	cl.rec.flush()
}

// check is the round-end output check, clients quiesced: the no-shared-link
// invariant by replay, the accounting identity, and the timer-bound guard.
func (s *serving) check() []string {
	problems := s.problems
	s.problems = nil
	st := s.after

	// Theorem 2 / no-shared-link: every held route is replayed onto a fresh
	// link state per plane (with that plane's faults masked); any error
	// means two circuits share a channel or a route crosses a failed one.
	states := make([]*linkstate.State, len(st.planes))
	held := make([]int64, len(st.planes))
	for c := range s.cl {
		cl := &s.cl[c]
		for i := 0; i < cl.n; i++ {
			g := cl.held[(cl.head+i)%len(cl.held)]
			p := s.tgt.planeOf(g)
			if p < 0 || p >= len(states) {
				problems = append(problems, fmt.Sprintf("circuit %d->%d is on an unknown plane", g.src, g.dst))
				continue
			}
			if states[p] == nil {
				states[p] = linkstate.New(s.tree)
				if p < len(s.faultSets) && s.faultSets[p] != nil {
					s.faultSets[p].Apply(states[p])
				}
			}
			held[p]++
			if err := states[p].AllocatePath(g.src, g.dst, g.ports); err != nil {
				problems = append(problems, fmt.Sprintf("replay of %d->%d %v on plane %d: %v", g.src, g.dst, g.ports, p, err))
			}
		}
	}
	for p, ps := range st.planes {
		if msg := unbalanced(p, ps); msg != "" {
			problems = append(problems, msg)
		}
		if ps.Active != held[p] {
			problems = append(problems, fmt.Sprintf("plane %d reports %d active circuits, the clients hold %d", p, ps.Active, held[p]))
		}
	}
	if msg := timerBound(st.planes, s.spec.batch, s.spec.maxWait); msg != "" {
		problems = append(problems, msg)
	}
	return problems
}

// unbalanced checks a quiesced plane's accounting identity and returns what
// is off, "" when the books balance.
func unbalanced(p int, ps fabric.Stats) string {
	if ps.Offered == ps.Granted+ps.Rejected+ps.Cancelled && ps.QueueDepth == 0 {
		return ""
	}
	return fmt.Sprintf("plane %d accounting: offered %d != granted %d + rejected %d + cancelled %d (queue %d)",
		p, ps.Offered, ps.Granted, ps.Rejected, ps.Cancelled, ps.QueueDepth)
}

// epochShape is the mean epoch size and the epoch latency p50 (ms) of the
// recent epochs across planes, each plane weighted by the epochs it ran;
// epochs is 0 when none ran.
func epochShape(planes []fabric.Stats) (epochs, size, latMS float64) {
	for _, p := range planes {
		k := float64(p.EpochSize.N)
		epochs += k
		size += k * p.EpochSize.Mean
		latMS += k * p.EpochLatencyMS.P50
	}
	if epochs > 0 {
		size /= epochs
		latMS /= epochs
	}
	return epochs, size, latMS
}

// timerBound is the guard against measuring the epoch timer instead of the
// system: with too few clients per plane an epoch never fills, every
// request waits out MaxWait, and the run reports the timer (found while
// sizing: BatchSize 16 on four planes ran fed_degraded 5x slower). It
// returns the reason when the recent epochs were under-filled or
// timer-paced, "" otherwise.
func timerBound(planes []fabric.Stats, batch int, maxWait time.Duration) string {
	n, size, lat := epochShape(planes)
	if n == 0 {
		return "timer-bound guard: no epochs ran"
	}
	if size < float64(batch)/2 {
		return fmt.Sprintf("timer-bound guard: mean epoch size %.2f is under half of BatchSize %d — epochs are flushed by the timer, not by load", size, batch)
	}
	if limit := maxWait.Seconds() * 1e3 / 2; lat >= limit {
		return fmt.Sprintf("timer-bound guard: epoch latency p50 %.3f ms is at least half of MaxWait %s — requests wait for the timer", lat, maxWait)
	}
	return ""
}

func (s *serving) grantRatio(e estimate) float64 { return float64(e.granted) / float64(max(e.reqs, 1)) }

func (s *serving) memMB() (float64, error) { return s.tgt.memMB() }

// finish releases every circuit, checks that the program's books close,
// and stops the system. It does nothing when no system is up.
func (s *serving) finish() []string {
	if s.tgt == nil {
		return nil
	}
	var problems []string
	for c := range s.cl {
		cl := &s.cl[c]
		for cl.n > 0 {
			g := cl.pop()
			if err := s.tgt.release(c, g); err != nil {
				problems = append(problems, fmt.Sprintf("final release %d->%d: %v", g.src, g.dst, err))
			}
		}
	}
	st, err := s.tgt.stats()
	if err != nil {
		problems = append(problems, fmt.Sprintf("final stats: %v", err))
	}
	for p, ps := range st.planes {
		if ps.Active != 0 || ps.Occupancy != 0 {
			problems = append(problems, fmt.Sprintf("plane %d after final release: active %d, occupancy %d", p, ps.Active, ps.Occupancy))
		}
		if msg := unbalanced(p, ps); msg != "" {
			problems = append(problems, "final: "+msg)
		}
	}
	if st.fed != nil && st.fed.Lost != 0 {
		problems = append(problems, fmt.Sprintf("federation lost %d circuits", st.fed.Lost))
	}
	if st.open > 0 {
		problems = append(problems, fmt.Sprintf("ftserve still maps %d connection ids after final release", st.open))
	}
	if err := s.tgt.stop(); err != nil {
		problems = append(problems, fmt.Sprintf("stop: %v", err))
	}
	s.tgt = nil
	return problems
}

// ---- in-process targets ----

const closeTimeout = 10 * time.Second

// inProc is what the two in-process targets share: circuits are handles,
// the serving process is this one, memory is this heap.
type inProc struct{}

func (inProc) release(_ int, g grant) error      { return g.conn.Release() }
func (inProc) serverCPU() (time.Duration, error) { return 0, nil }
func (inProc) memMB() (float64, error)           { return heapMB(), nil }

// grant wraps an admission's outcome: a denial is a verdict, anything else
// an error; the route is copied out once, at grant time.
func (inProc) grant(c fabric.Conn, src, dst int, err error) (grant, error) {
	if err != nil {
		if errors.Is(err, fabric.ErrUnroutable) {
			return grant{}, errDenied
		}
		return grant{}, err
	}
	return grant{src: src, dst: dst, ports: c.Ports(), conn: c}, nil
}

// fabricTarget is one fabric.Manager.
type fabricTarget struct {
	inProc
	m *fabric.Manager
}

func (t fabricTarget) connect(_, src, dst int) (grant, error) {
	h, err := t.m.Connect(context.Background(), src, dst)
	return t.grant(h, src, dst, err)
}

func (fabricTarget) planeOf(grant) int { return 0 }

func (t fabricTarget) stats() (sysStats, error) {
	return sysStats{planes: []fabric.Stats{t.m.Stats()}, open: -1}, nil
}

func (t fabricTarget) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
	defer cancel()
	return t.m.Close(ctx)
}

// fedTarget is a federation.Router over several planes.
type fedTarget struct {
	inProc
	r     *federation.Router
	index map[string]int
}

func newFedTarget(r *federation.Router) fedTarget {
	t := fedTarget{r: r, index: make(map[string]int)}
	for i, name := range r.PlaneNames() {
		t.index[name] = i
	}
	return t
}

func (t fedTarget) connect(_, src, dst int) (grant, error) {
	h, err := t.r.Connect(context.Background(), src, dst)
	return t.grant(h, src, dst, err)
}

func (t fedTarget) planeOf(g grant) int {
	i, ok := t.index[g.conn.(*federation.Handle).Plane()]
	if !ok {
		return -1
	}
	return i
}

func (t fedTarget) stats() (sysStats, error) {
	fs := t.r.Stats()
	return fedSysStats(&fs, -1), nil
}

func fedSysStats(fs *federation.Stats, open int) sysStats {
	st := sysStats{fed: fs, open: open}
	for _, p := range fs.Planes {
		st.planes = append(st.planes, p.Fabric)
	}
	return st
}

func (t fedTarget) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
	defer cancel()
	return t.r.Close(ctx)
}

// ---- the two in-process serving workloads ----

func fabricChurnSpec() servingSpec {
	spec := servingSpec{layer: "fabric", clients: 32, hold: 4,
		batch: 16, maxWait: 200 * time.Microsecond}
	spec.build = func() (target, []*faults.FaultSet, error) {
		m, err := fabric.New(fabric.Config{Tree: newServingTree(), BatchSize: spec.batch, MaxWait: spec.maxWait})
		if err != nil {
			return nil, nil, err
		}
		return fabricTarget{m: m}, nil, nil
	}
	return spec
}

// The degraded fabric is configuration, not input: the fault sets are drawn
// from a fixed seed (ISSUE 11's seed-1 fabric), whatever --seed says. Drawn
// from --seed they made the fabric itself differ from run to run — grant
// ratio 0.858-0.899, one seed 40 % faster than the rest — which is the
// variance a run-to-run comparison has to be rid of; the request streams
// still follow --seed.
const (
	fedPlanes        = 4
	fedFaultedPlanes = 2
	fedFaultProb     = 0.10
	fedFaultSeed     = 1
)

func fedDegradedSpec() servingSpec {
	spec := servingSpec{layer: "federation", clients: 32, hold: 40,
		batch: 4, maxWait: 200 * time.Microsecond}
	spec.build = func() (target, []*faults.FaultSet, error) {
		cfg := federation.Config{Policy: federation.PolicyLeastLoaded}
		for i := 0; i < fedPlanes; i++ {
			cfg.Planes = append(cfg.Planes, federation.PlaneConfig{
				Fabric: fabric.Config{Tree: newServingTree(), BatchSize: spec.batch, MaxWait: spec.maxWait}})
		}
		r, err := federation.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		sets := make([]*faults.FaultSet, fedPlanes)
		for i, name := range r.PlaneNames()[:fedFaultedPlanes] {
			surf, _ := r.Plane(name)
			sets[i] = faults.Uniform(surf.Tree(), fedFaultProb, fedFaultSeed+int64(i))
			if _, _, err := surf.Fail(sets[i]); err != nil {
				_ = newFedTarget(r).stop() // already failing on the injection error
				return nil, nil, fmt.Errorf("inject faults on %s: %w", name, err)
			}
		}
		return newFedTarget(r), sets, nil
	}
	return spec
}
