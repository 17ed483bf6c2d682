// Package switchsim is the system-level network simulation of the paper's
// Section 5, rebuilt on the des kernel in place of SystemC: switch nodes
// are connected in the fat-tree topology and request/grant control signals
// propagate hop by hop through them. It realizes the *distributed*
// adaptive scheduler — every switch decides with local information only,
// concurrently with all other switches — and thereby cross-checks the
// sequential local baseline in package core.
//
// One control token is injected per request at its source switch at time
// 0. Each hop costs one cycle. On its way up a token claims an upward
// channel chosen from the locally available ones; at the common ancestor
// it turns around; on its way down it needs the forced downward channel
// (Theorem 2) and dies — releasing everything it held, as a torn-down
// circuit does — if that channel is taken. A token that reaches its
// destination switch raises the grant signal the paper counts.
package switchsim

import (
	"math/bits"
	"math/rand"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// Model simulates one batch of requests on a fat tree.
type Model struct {
	// Policy selects upward ports from the locally available set.
	Policy core.PortPolicy
	// Seed drives random arbitration and port choice.
	Seed int64
	// InjectionSpread > 0 staggers token injection uniformly over
	// [0, InjectionSpread) cycles instead of injecting all at time 0,
	// modeling skewed request arrival.
	InjectionSpread int
}

// Metrics augments the scheduling result with timing observed in the
// event simulation.
type Metrics struct {
	// Makespan is the cycle at which the last token settled.
	Makespan des.Time
	// GrantLatency holds, per granted request, the cycle its grant signal
	// reached the destination switch.
	GrantLatency []des.Time
	// Events is the number of simulation events processed.
	Events uint64
}

type token struct {
	idx    int   // outcome index
	h      int   // current level
	sigma  int   // current switch (up phase)
	deltas []int // mirror switches per level (down phase), filled at turnaround
	up     bool
}

// Run simulates the batch and returns the scheduling result plus timing
// metrics. The link state is created internally (fresh network).
func (m *Model) Run(tree *topology.Tree, reqs []core.Request) (*core.Result, Metrics) {
	st := linkstate.New(tree)
	rng := rand.New(rand.NewSource(m.Seed))
	outs := make([]core.Outcome, len(reqs))
	var kernel des.Kernel
	var met Metrics

	var step func(tk *token)
	finishFail := func(tk *token, level int, down bool) {
		o := &outs[tk.idx]
		o.FailLevel = level
		o.FailDown = down
		// Tear down: release everything the token held.
		sigma, _ := tree.NodeSwitch(o.Src)
		for h, p := range o.Ports {
			if err := st.Release(linkstate.Up, h, sigma, p); err != nil {
				panic(err)
			}
			sigma = tree.UpParent(h, sigma, p)
		}
		if !tk.up {
			// Down channels claimed so far: levels H-1 .. current+1.
			for h := o.H - 1; h > level; h-- {
				if err := st.Release(linkstate.Down, h, tk.deltas[h], o.Ports[h]); err != nil {
					panic(err)
				}
			}
		}
		o.Ports = o.Ports[:0]
	}

	step = func(tk *token) {
		o := &outs[tk.idx]
		if tk.up {
			if tk.h == o.H {
				// Turnaround at the common ancestor: compute the forced
				// mirror switches and start descending.
				tk.up = false
				tk.deltas = make([]int, o.H)
				delta, _ := tree.NodeSwitch(o.Dst)
				for h := 0; h < o.H; h++ {
					tk.deltas[h] = delta
					delta = tree.UpParent(h, delta, o.Ports[h])
				}
				tk.h = o.H - 1
				kernel.After(1, func() { step(tk) })
				return
			}
			p, ok := pick(m.Policy, rng, st.ULink(tk.h, tk.sigma))
			if !ok {
				finishFail(tk, tk.h, false)
				return
			}
			if err := st.Allocate(linkstate.Up, tk.h, tk.sigma, p); err != nil {
				panic(err)
			}
			o.Ports = append(o.Ports, p)
			tk.sigma = tree.UpParent(tk.h, tk.sigma, p)
			tk.h++
			kernel.After(1, func() { step(tk) })
			return
		}
		// Down phase at level tk.h: claim the forced channel.
		if !st.Available(linkstate.Down, tk.h, tk.deltas[tk.h], o.Ports[tk.h]) {
			finishFail(tk, tk.h, true)
			return
		}
		if err := st.Allocate(linkstate.Down, tk.h, tk.deltas[tk.h], o.Ports[tk.h]); err != nil {
			panic(err)
		}
		if tk.h == 0 {
			o.Granted = true
			met.GrantLatency = append(met.GrantLatency, kernel.Now())
			return
		}
		tk.h--
		kernel.After(1, func() { step(tk) })
	}

	// Inject tokens. Same-time arbitration follows injection order, which
	// we shuffle for the random policy to avoid source-index bias.
	injectionOrder := make([]int, len(reqs))
	for i := range injectionOrder {
		injectionOrder[i] = i
	}
	if m.Policy == core.RandomFit {
		rng.Shuffle(len(injectionOrder), func(i, j int) {
			injectionOrder[i], injectionOrder[j] = injectionOrder[j], injectionOrder[i]
		})
	}
	for _, i := range injectionOrder {
		r := reqs[i]
		outs[i] = core.Outcome{
			Request:   r,
			H:         tree.AncestorLevel(r.Src, r.Dst),
			FailLevel: -1,
		}
		if outs[i].H == 0 {
			outs[i].Granted = true
			met.GrantLatency = append(met.GrantLatency, 0)
			continue
		}
		sigma, _ := tree.NodeSwitch(r.Src)
		tk := &token{idx: i, sigma: sigma, up: true}
		at := des.Time(0)
		if m.InjectionSpread > 0 {
			at = des.Time(rng.Intn(m.InjectionSpread))
		}
		kernel.At(at, func() { step(tk) })
	}

	met.Events = kernel.Run()
	met.Makespan = kernel.Now()

	res := &core.Result{Scheduler: m.name(), Outcomes: outs, Total: len(outs)}
	for i := range outs {
		if outs[i].Granted {
			res.Granted++
		}
	}
	return res, met
}

func (m *Model) name() string {
	return "switchsim/" + m.Policy.String()
}

// pick chooses a port of the availability row avail: the lowest for the
// greedy policies, a uniform draw for RandomFit; false when none is free.
func pick(policy core.PortPolicy, rng *rand.Rand, avail uint64) (int, bool) {
	if avail == 0 {
		return 0, false
	}
	rank := 0
	if policy == core.RandomFit {
		rank = rng.Intn(bits.OnesCount64(avail))
	}
	return core.NthSet(avail, rank), true
}
