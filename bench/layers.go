package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/federation"
	"repro/internal/linkstate"
	"repro/internal/sched"
	"repro/internal/topology"
)

// Per-layer metrics. Every layer is measured from outside, by timing calls
// into its public functions on a request stream replayed at that layer; a
// layer's self time is its time minus the time of the same stream one layer
// down. Two kinds:
//
//   - replays: fixed-shape measurements that do not depend on the workload
//     being traced (the same numbers whichever workload the run names);
//   - window metrics: the traced workload's own counters over its window
//     (the program's Stats deltas, CPU accounting); 0 where the layer is
//     not on that workload's path.

type metricDef struct {
	name, unit, better string
}

var perLayerMetrics = []metricDef{
	{"bitvec.and_firstset_w128_ns", "ns", "lower"},
	{"topology.cursor_walk_ns", "ns", "lower"},
	{"topology.lca_ns", "ns", "lower"},
	{"linkstate.avail_alloc_ns", "ns", "lower"},
	{"linkstate.release_path_ns", "ns", "lower"},
	{"linkstate.reset_ns", "ns", "lower"},
	{"core.schedule_ns_per_req", "ns", "lower"},
	{"core.allocs_per_batch", "count", "lower"},
	{"core.schedule_small_ns_per_req", "ns", "lower"},
	{"core.delta_ns_per_req", "ns", "lower"},
	{"core.steps_per_req", "count", "lower"},
	{"core.vector_ands_per_req", "count", "lower"},
	{"core.rollback_releases_per_req", "count", "lower"},
	{"sched.parse_us", "us", "lower"},
	{"parsched.det_req_per_s", "1/s", "higher"},
	{"parsched.shard_req_per_s", "1/s", "higher"},
	{"parsched.racy_req_per_s", "1/s", "higher"},
	{"parsched.shard_speedup", "ratio", "higher"},
	{"fabric.connect_rt_e1_ns", "ns", "lower"},
	{"fabric.connect_self_us", "us", "lower"},
	{"fabric.queue_wait_us", "us", "lower"},
	{"fabric.release_ns", "ns", "lower"},
	{"fabric.stats_us", "us", "lower"},
	{"fabric.close_drain_ms", "ms", "lower"},
	{"fabric.fail_apply_us", "us", "lower"},
	{"fabric.epoch_size_mean", "count", "higher"},
	{"fabric.epoch_latency_p50_us", "us", "lower"},
	{"fabric.epochs_per_s", "1/s", "higher"},
	{"fabric.overflow", "count", "lower"},
	{"fabric.denied_frac", "ratio", "lower"},
	{"fabric.allocs_per_req", "count", "lower"},
	{"federation.connect_self_us", "us", "lower"},
	{"federation.failovers_per_req", "count", "lower"},
	{"federation.imbalance", "ratio", "lower"},
	{"federation.stats_us", "us", "lower"},
	{"ftserve.connect_rt_us", "us", "lower"},
	{"ftserve.release_rt_us", "us", "lower"},
	{"ftserve.stats_rt_us", "us", "lower"},
	{"ftserve.healthz_rt_us", "us", "lower"},
	{"ftserve.floor_rt_us", "us", "lower"},
	{"ftserve.connect_self_us", "us", "lower"},
	{"ftserve.server_cpu_us_per_req", "us", "lower"},
	{"ftserve.startup_ms", "ms", "lower"},
	{"ftserve.shutdown_ms", "ms", "lower"},
	{"loadgen.cpu_us_per_req", "us", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// windowMetrics reads the traced workload's own layer counters: the
// program's Stats deltas between the start and the end of the last round,
// and the CPU both sides burned over it.
func (s *serving) windowMetrics() map[string]float64 {
	m := map[string]float64{}
	var epochs, offered, rejected, overflow float64
	for i, a := range s.after.planes {
		b := s.before.planes[i]
		epochs += float64(a.Epochs - b.Epochs)
		offered += float64(a.Offered - b.Offered)
		rejected += float64(a.Rejected - b.Rejected)
		overflow += float64(a.Overflow - b.Overflow)
	}
	_, size, latMS := epochShape(s.after.planes)
	m["fabric.epoch_size_mean"] = size
	m["fabric.epoch_latency_p50_us"] = latMS * 1e3
	m["fabric.epochs_per_s"] = epochs / s.roundDur.Seconds()
	m["fabric.overflow"] = overflow
	if offered > 0 {
		m["fabric.denied_frac"] = rejected / offered
	}
	reqs := offered
	if a, b := s.after.fed, s.before.fed; a != nil && b != nil {
		reqs = float64(a.Offered - b.Offered)
		if reqs > 0 {
			m["federation.failovers_per_req"] = float64(a.Failovers-b.Failovers) / reqs
		}
		m["federation.imbalance"] = a.Imbalance
	}
	if reqs > 0 {
		m["loadgen.cpu_us_per_req"] = float64(s.genCPU.Microseconds()) / reqs
		if s.srvCPU > 0 {
			m["ftserve.server_cpu_us_per_req"] = float64(s.srvCPU.Microseconds()) / reqs
		}
	}
	return m
}

// budgetRow is one layer of the stacked budget of a Connect.
type budgetRow struct {
	layer string
	us    float64
}

// stackBudget splits a serving workload's connect p50 into the layers it
// passes through, top down; the rows sum to the p50. Each upper layer
// contributes its self time (its round trip minus the same stream replayed
// one layer down), and core is the scheduling pass the request's epoch
// waits for (a mean-size epoch at the replayed per-request cost, once per
// plane tried). In process the fabric — queueing, epoch wait, wakeup,
// release ring — is what remains of the p50. Over HTTP the fabric is ~1 %
// of a round trip whose run-to-run noise is larger than that, so there the
// fabric row is its replayed epoch-1 round trip and the last row states
// what the replays do not explain. It also derives the two fabric metrics
// that need both a window metric and a replay.
func stackBudget(workload string, p50us float64, m map[string]float64) []budgetRow {
	if workload == "batch_perm" {
		return nil
	}
	var rows []budgetRow
	below := p50us
	add := func(layer string, us float64) {
		rows = append(rows, budgetRow{layer, us})
		below -= us
	}
	if workload == "http_rt" {
		add("loadgen + loopback + net/http + mux floor (404)", m["ftserve.floor_rt_us"])
		add("ftserve self (JSON, mux, id map)", m["ftserve.connect_self_us"])
	}
	if workload != "fabric_churn" {
		add("federation self (policy, health, handle)", m["federation.connect_self_us"])
	}
	coreUS := m["core.schedule_small_ns_per_req"] * m["fabric.epoch_size_mean"] * (1 + m["federation.failovers_per_req"]) / 1e3
	fabricUS := below
	if workload == "http_rt" {
		fabricUS = m["fabric.connect_rt_e1_ns"] / 1e3
	}
	m["fabric.connect_self_us"] = fabricUS - coreUS
	m["fabric.queue_wait_us"] = fabricUS - m["fabric.epoch_latency_p50_us"]
	add("fabric self (queue, epoch wait, wakeup)", fabricUS-coreUS)
	add("core (one epoch's scheduling pass)", coreUS)
	if workload == "http_rt" {
		add("unexplained (workload p50 - replayed round trip)", below)
	}
	return rows
}

// perOp runs fn — which performs some operations and reports how many and
// how long they took — for about d, and returns the best-decile ns per
// operation across the calls: the same estimator as the workloads, on
// millisecond chunks.
func perOp(d time.Duration, fn func() (ops int, took time.Duration)) float64 {
	var v []float64
	for began := time.Now(); len(v) < 5 || time.Since(began) < d; {
		n, took := fn()
		v = append(v, float64(took)/float64(n))
	}
	return bestDecile(v, false)
}

var sink int // defeats dead-code elimination of measured pure calls

// layerReplays runs every fixed-shape layer measurement, spending about
// budget in total. Results are cached for the process: they do not depend
// on the workload being traced.
func (r *runner) layerReplays(budget time.Duration, seed int64) (map[string]float64, error) {
	if r.replays != nil {
		return r.replays, nil
	}
	runtime.GOMAXPROCS(inProcProcs())
	const items = 20
	d := max(budget/items, 5*time.Millisecond)
	m := map[string]float64{}

	perms := batchInputs(seed)
	replayKernels(m, d, seed, perms[0])
	if err := replayCore(m, d, seed, perms); err != nil {
		return nil, err
	}
	if err := replayFabric(m, d, seed); err != nil {
		return nil, err
	}
	if err := replayFtserve(m, d, r.ftserveBin, seed); err != nil {
		return nil, err
	}
	r.replays = m
	return m, nil
}

// step is one level crossing of a granted route: the (level, sigma, delta,
// port) the scheduler touched.
type step struct{ h, sigma, delta, port int }

type route struct {
	src, dst int
	ports    []int
}

// replayKernels measures bitvec, topology and linkstate on the first
// permutation of the batch_perm stream and the routes Level-wise grants it.
func replayKernels(m map[string]float64, d time.Duration, seed int64, reqs []core.Request) {
	// bitvec at width 128: off the serving path (rows of w <= 64 take
	// linkstate's word form); recorded to show it stays off-path.
	rng := rand.New(rand.NewSource(seed))
	a, b, dst := bitvec.New(128), bitvec.New(128), bitvec.New(128)
	for i := 0; i < 128; i++ {
		if rng.Intn(2) == 0 {
			a.Set(i)
		}
		if rng.Intn(2) == 0 {
			b.Set(i)
		}
	}
	a.Set(127)
	b.Set(127)
	m["bitvec.and_firstset_w128_ns"] = perOp(d, func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < 4096; i++ {
			dst.And(a, b)
			p, _ := dst.FirstSet()
			sink += p
		}
		return 4096, time.Since(t0)
	})

	tree := newBatchTree()
	heights := make([]int, len(reqs))
	for i, q := range reqs {
		heights[i] = tree.AncestorLevel(q.Src, q.Dst)
	}
	m["topology.lca_ns"] = perOp(d, func() (int, time.Duration) {
		t0 := time.Now()
		for _, q := range reqs {
			sink += tree.AncestorLevel(q.Src, q.Dst)
		}
		return len(reqs), time.Since(t0)
	})
	m["topology.cursor_walk_ns"] = perOp(d, func() (int, time.Duration) {
		t0 := time.Now()
		var cur topology.RouteCursor
		for i, q := range reqs {
			cur.Start(tree, q.Src, q.Dst)
			for h := 0; h < heights[i]; h++ {
				cur.Advance(h)
			}
			sink += cur.Sigma()
		}
		return len(reqs), time.Since(t0)
	})

	st := linkstate.New(tree)
	res := sched.MustParse(batchSpec).Schedule(st, reqs)
	var steps []step
	var routes []route
	for _, o := range res.Outcomes {
		if !o.Granted {
			continue
		}
		routes = append(routes, route{o.Src, o.Dst, append([]int(nil), o.Ports...)})
		var cur topology.RouteCursor
		cur.Start(tree, o.Src, o.Dst)
		cur.Walk(o.Ports, func(h, sigma, delta, p int) { steps = append(steps, step{h, sigma, delta, p}) })
	}
	m["linkstate.avail_alloc_ns"] = perOp(d, func() (int, time.Duration) {
		st.Reset()
		t0 := time.Now()
		for _, s := range steps {
			if st.AvailBothWord(s.h, s.sigma, s.delta)>>uint(s.port)&1 == 1 {
				st.AllocateBoth(s.h, s.sigma, s.delta, s.port)
			}
		}
		return len(steps), time.Since(t0)
	})
	m["linkstate.release_path_ns"] = perOp(d, func() (int, time.Duration) {
		st.Reset()
		for _, rt := range routes {
			if err := st.AllocatePath(rt.src, rt.dst, rt.ports); err != nil {
				panic(err) // routes of one verified result cannot conflict
			}
		}
		t0 := time.Now()
		for _, rt := range routes {
			if err := st.ReleasePath(rt.src, rt.dst, rt.ports); err != nil {
				panic(err)
			}
		}
		return len(routes), time.Since(t0)
	})
	m["linkstate.reset_ns"] = perOp(d, func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < 64; i++ {
			st.Reset()
		}
		return 64, time.Since(t0)
	})
}

// smallEpochs is the serving shape for core: 16-request epochs against a
// half-occupied FT(3,8,8).
const (
	smallEpochSize = 16
	smallEpochs    = 256
)

// halfOccupied returns an FT(3,8,8) state with about half its channels held
// by standing circuits, and the engine that admitted them.
func halfOccupied(seed int64) (*linkstate.State, sched.Engine, *core.Scratch) {
	tree := newServingTree()
	st := linkstate.New(tree)
	eng := sched.MustParse(batchSpec)
	sc := core.NewScratch()
	rng := rand.New(rand.NewSource(seed))
	batch := make([]core.Request, smallEpochSize)
	for i := 0; i < 256 && st.Utilization() < 0.5; i++ {
		for j := range batch {
			batch[j].Src, batch[j].Dst = nextPair(rng, tree.Nodes())
		}
		eng.ScheduleInto(st, batch, sc)
	}
	return st, eng, sc
}

func replayCore(m map[string]float64, d time.Duration, seed int64, perms [][]core.Request) error {
	st := linkstate.New(newBatchTree())
	eng, err := sched.Parse(batchSpec)
	if err != nil {
		return err
	}
	sc := core.NewScratch()

	// One whole pass for the exact counts and the allocation guard.
	var ops core.Counters
	var total int
	eng.ScheduleInto(st, perms[0], sc) // grow the scratch first
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, p := range perms {
		st.Reset()
		res := eng.ScheduleInto(st, p, sc)
		ops.Add(res.Ops)
		total += res.Total
	}
	runtime.ReadMemStats(&m1)
	// Whole allocations per batch, as testing.AllocsPerRun counts them: a
	// stray runtime allocation during the pass is not the scheduler's.
	m["core.allocs_per_batch"] = float64((m1.Mallocs - m0.Mallocs) / uint64(len(perms)))
	m["core.steps_per_req"] = float64(ops.Steps) / float64(total)
	m["core.vector_ands_per_req"] = float64(ops.VectorANDs) / float64(total)
	m["core.rollback_releases_per_req"] = float64(ops.Releases) / float64(total)

	timeEngine := func(e sched.Engine, into bool) float64 {
		next := 0
		return perOp(d, func() (int, time.Duration) {
			p := perms[next%len(perms)]
			next++
			st.Reset()
			t0 := time.Now()
			if into {
				e.ScheduleInto(st, p, sc)
			} else {
				e.Schedule(st, p)
			}
			return len(p), time.Since(t0)
		})
	}
	seq := timeEngine(eng, true)
	m["core.schedule_ns_per_req"] = seq

	m["sched.parse_us"] = perOp(d, func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < 64; i++ {
			if _, err := sched.Parse(batchSpec); err != nil {
				panic(err) // parsed above
			}
		}
		return 64, time.Since(t0)
	}) / 1e3

	// The three parallel modes on the same inputs, workers = GOMAXPROCS:
	// not on any default path today; the number the knob audit needs.
	for _, mode := range []struct{ key, spec string }{
		{"det", "deterministic"}, {"shard", "shard"}, {"racy", "racy"},
	} {
		pe, err := sched.Parse(fmt.Sprintf("parallel,mode=%s,rollback,workers=%d", mode.spec, inProcProcs()))
		if err != nil {
			return err
		}
		ns := timeEngine(pe, false)
		m["parsched."+mode.key+"_req_per_s"] = 1e9 / ns
		if mode.key == "shard" {
			m["parsched.shard_speedup"] = seq / ns
		}
	}

	// The serving shape: small epochs against standing load.
	epochs := make([][]core.Request, smallEpochs)
	rng := rand.New(rand.NewSource(seed + 1))
	nodes := newServingTree().Nodes()
	for i := range epochs {
		epochs[i] = make([]core.Request, smallEpochSize)
		for j := range epochs[i] {
			epochs[i][j].Src, epochs[i][j].Dst = nextPair(rng, nodes)
		}
	}
	sst, seng, ssc := halfOccupied(seed)
	m["core.schedule_small_ns_per_req"] = perOp(d, func() (int, time.Duration) {
		var took time.Duration
		for _, ep := range epochs {
			t0 := time.Now()
			res := seng.ScheduleInto(sst, ep, ssc)
			took += time.Since(t0)
			for i := range res.Outcomes {
				if o := &res.Outcomes[i]; o.Granted {
					core.ReleaseRoute(sst, o.Src, o.Dst, o.Ports, nil)
				}
			}
		}
		return smallEpochs * smallEpochSize, took
	})

	dst, deng, dsc := halfOccupied(seed)
	inc, ok := sched.AsIncremental(deng)
	if !ok {
		return errors.New("engine " + batchSpec + " lost its delta-epoch capability")
	}
	deps := make([]core.Departure, 0, smallEpochSize)
	ports := make([]int, 0, smallEpochSize*4)
	m["core.delta_ns_per_req"] = perOp(d, func() (int, time.Duration) {
		var took time.Duration
		for _, ep := range epochs {
			t0 := time.Now()
			res := inc.ScheduleDeltaInto(dst, ep, deps, dsc)
			took += time.Since(t0)
			// The result aliases the scratch: copy the grants out as the
			// next epoch's departures.
			deps, ports = deps[:0], ports[:0]
			for i := range res.Outcomes {
				if o := &res.Outcomes[i]; o.Granted {
					at := len(ports)
					ports = append(ports, o.Ports...)
					deps = append(deps, core.Departure{Src: o.Src, Dst: o.Dst, Ports: ports[at:len(ports):len(ports)]})
				}
			}
		}
		return smallEpochs * smallEpochSize, took
	})
	return nil
}

// connectLoop is one client with no hold: Connect, then Release at once,
// for about d. It returns the p50 of each in ns.
func connectLoop(d time.Duration, seed int64, nodes int, connect func(src, dst int) (fabric.Conn, error)) (connNS, relNS float64, err error) {
	var ch, rh hist
	rng := clientRNG(seed, 0)
	for began := time.Now(); time.Since(began) < d || ch.n < 100; {
		src, dst := nextPair(rng, nodes)
		t0 := time.Now()
		c, err := connect(src, dst)
		t1 := time.Now()
		if err != nil {
			return 0, 0, err // an empty fabric grants everything
		}
		if err := c.Release(); err != nil {
			return 0, 0, err
		}
		t2 := time.Now()
		ch.record(int64(t1.Sub(t0)))
		rh.record(int64(t2.Sub(t1)))
	}
	return ch.quantile(0.5), rh.quantile(0.5), nil
}

func replayFabric(m map[string]float64, d time.Duration, seed int64) error {
	ctx := context.Background()
	nodes := newServingTree().Nodes()

	// Epoch-1 round trip: one client, BatchSize 1, nothing to wait for.
	fm, err := fabric.New(fabric.Config{Tree: newServingTree(), BatchSize: 1})
	if err != nil {
		return err
	}
	fabE1, rel, err := connectLoop(d, seed, nodes, func(src, dst int) (fabric.Conn, error) { return fm.Connect(ctx, src, dst) })
	if cerr := fm.Close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("fabric epoch-1 loop: %w", err)
	}
	m["fabric.connect_rt_e1_ns"] = fabE1
	m["fabric.release_ns"] = rel

	// The same stream through a router over one healthy plane: the
	// difference is the federation layer's self time.
	fr, err := federation.New(federation.Config{Policy: federation.PolicyLeastLoaded,
		Planes: []federation.PlaneConfig{{Fabric: fabric.Config{Tree: newServingTree(), BatchSize: 1}}}})
	if err != nil {
		return err
	}
	fedE1, _, err := connectLoop(d, seed, nodes, func(src, dst int) (fabric.Conn, error) { return fr.Connect(ctx, src, dst) })
	if cerr := fr.Close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("federation epoch-1 loop: %w", err)
	}
	m["federation.connect_rt_e1_ns"] = fedE1 // not declared: an input to the self times below
	m["federation.connect_self_us"] = (fedE1 - fabE1) / 1e3

	// Stats() under load and Close with circuits held, on fabric_churn's
	// own configuration.
	s := newServing(fabricChurnSpec(), seed)
	if err := s.setup(); err != nil {
		return err
	}
	mgr := s.tgt.(fabricTarget).m
	w := newWindow(1)
	w.beginShort(d)
	done := make(chan error, 1)
	go func() { done <- s.round(w, nil) }()
	var sh hist
	for running := true; running; {
		select {
		case err = <-done:
			running = false
		case <-time.After(2 * time.Millisecond):
			t0 := time.Now()
			st := mgr.Stats()
			sh.record(int64(time.Since(t0)))
			sink += int(st.Epochs)
		}
	}
	if err != nil {
		return err
	}
	m["fabric.stats_us"] = sh.quantile(0.5) / 1e3
	t0 := time.Now()
	if err := s.tgt.stop(); err != nil {
		return fmt.Errorf("close with circuits held: %w", err)
	}
	m["fabric.close_drain_ms"] = float64(time.Since(t0)) / 1e6

	// Fail(faultset) on an idle plane, as fed_degraded's set-up does, and
	// Router.Stats() on its four planes.
	var fails []float64
	var fedStats hist
	for i := 0; i < 5; i++ {
		tgt, sets, err := fedDegradedSpec().build()
		if err != nil {
			return err
		}
		r := tgt.(fedTarget).r
		surf, _ := r.Plane(r.PlaneNames()[fedPlanes-1]) // a healthy plane
		t0 := time.Now()
		if _, _, err := surf.Fail(sets[0]); err != nil {
			return err
		}
		fails = append(fails, float64(time.Since(t0))/1e3)
		for j := 0; j < 20; j++ {
			t0 := time.Now()
			st := r.Stats()
			fedStats.record(int64(time.Since(t0)))
			sink += int(st.Offered)
		}
		if err := tgt.stop(); err != nil {
			return err
		}
	}
	m["fabric.fail_apply_us"] = bestDecile(fails, false)
	m["federation.stats_us"] = fedStats.quantile(0.5) / 1e3
	return nil
}

// replayFtserve spawns ftserve as http_rt does and times each endpoint under
// http_rt's own concurrency — as many closed-loop clients, one keep-alive
// connection each, the same split of CPUs — because a loopback round trip is
// bimodal: ~30 us while both processes stay awake, ~90 us when each request
// has to wake them, and one lone client only ever sees the second. The floor
// is a request for a path ftserve does not serve: loopback, net/http and the
// mux answering 404 with no handler at all. /healthz is not that floor: its
// handler takes a full Router.Stats(), which sorts up to 4096 epoch samples
// per plane and costs over a millisecond on a fabric that has been busy.
func replayFtserve(m map[string]float64, d time.Duration, bin string, seed int64) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(generatorProcs()))
	clients := runtime.NumCPU()
	proc, err := spawnFtserve(bin, serverProcs(), "-batch", "1")
	if err != nil {
		return err
	}
	t, err := newHTTPTarget(proc, clients)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = t.stop() // an earlier error is the one returned
		}
	}()
	m["ftserve.startup_ms"] = float64(proc.startup) / 1e6

	// Connect with the oldest of 8 held circuits released first, as http_rt
	// does; the circuits still held at the end make shutdown drain them.
	nodes := newServingTree().Nodes()
	held := make([][]grant, clients)
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = clientRNG(seed, c)
	}
	get := func(head []byte, want int) func(int, *hist) error {
		return func(c int, h *hist) error {
			t0 := time.Now()
			status, _, err := t.conns[c].do(head, nil)
			if err != nil || status != want {
				return fmt.Errorf("status %d, want %d: %v", status, want, err)
			}
			h.record(int64(time.Since(t0)))
			return nil
		}
	}
	churn := func(timeRelease bool) func(int, *hist) error {
		return func(c int, h *hist) error {
			if len(held[c]) == 8 {
				t0 := time.Now()
				if err := t.release(c, held[c][0]); err != nil {
					return err
				}
				if timeRelease {
					h.record(int64(time.Since(t0)))
				}
				held[c] = held[c][1:]
			}
			src, dst := nextPair(rngs[c], nodes)
			t0 := time.Now()
			g, err := t.connect(c, src, dst)
			if err != nil {
				return err // an almost empty fabric grants everything
			}
			if !timeRelease {
				h.record(int64(time.Since(t0)))
			}
			held[c] = append(held[c], g)
			return nil
		}
	}
	// The endpoints take turns in 8 chunks of d/8 each, every client
	// driving its own connection, and each reports its best-decile chunk
	// p50: the workloads' estimator, interleaved so that a slow stretch of
	// the host lands on all of them and the budget subtracts like from like.
	kinds := []struct {
		metric string
		fn     func(int, *hist) error
	}{
		{"ftserve.floor_rt_us", get(reqFloor, 404)},
		{"ftserve.healthz_rt_us", get(reqHealthz, 200)},
		{"ftserve.connect_rt_us", churn(false)},
		{"ftserve.release_rt_us", churn(true)},
		{"ftserve.stats_rt_us", get(reqStats, 200)},
	}
	p50s := make([][]float64, len(kinds))
	for chunk := 0; chunk < 8; chunk++ {
		for k, kind := range kinds {
			hists := make([]hist, clients)
			errs := make([]error, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for began := time.Now(); errs[c] == nil && (time.Since(began) < d/8 || hists[c].n < 20); {
						errs[c] = kind.fn(c, &hists[c])
					}
				}(c)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return fmt.Errorf("%s: %w", kind.metric, err)
			}
			for c := 1; c < clients; c++ {
				hists[0].merge(&hists[c])
			}
			p50s[k] = append(p50s[k], hists[0].quantile(0.5)/1e3)
		}
	}
	for k, kind := range kinds {
		m[kind.metric] = bestDecile(p50s[k], false)
	}
	// What ftserve itself adds to a Connect: its round trip minus the
	// net/http floor minus the same call made in process.
	m["ftserve.connect_self_us"] = m["ftserve.connect_rt_us"] - m["ftserve.floor_rt_us"] - m["federation.connect_rt_e1_ns"]/1e3

	stopped = true
	if err := t.stop(); err != nil {
		return fmt.Errorf("SIGTERM with circuits held: %w", err)
	}
	m["ftserve.shutdown_ms"] = float64(t.shutdown) / 1e6
	return nil
}
