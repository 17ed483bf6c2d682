// Package core implements the paper's primary contribution — the
// Level-wise fat-tree scheduling algorithm — together with the
// conventional local (adaptive) schedulers it is evaluated against.
//
// All schedulers consume a batch of connection requests and a mutable
// link-availability state (package linkstate), and produce a Result
// recording which connections were granted and via which upward ports.
// The schedulability ratio of the batch — granted / total — is the
// paper's figure of merit.
//
// The Level-wise scheduler (Section 4 of the paper) uses global routing
// information: at each level h it ANDs the source-side switch's Ulink
// vector with the destination-side mirror switch's Dlink vector and picks
// an upward port available in both, allocating the upward and the forced
// downward channel simultaneously (Theorem 2). The local schedulers pick
// upward ports from the local Ulink vector only and discover downward
// conflicts after the fact, as adaptive distributed routing does.
//
// # The word sweep
//
// Every availability row is one machine word: topology.New refuses a tree
// with more than 64 parents per switch (topology.ErrWideSwitch), so
// LevelWise.ScheduleInto runs the paper's pipeline as it is drawn: per
// level, a request is a few registers. One prep pass turns the batch into
// a worklist of 16-byte SweepPos records {i, σ, δ, H} in processing order
// (requests with H == 0 are granted there and never listed). SweepWords
// then takes the levels in turn: it fetches the level's Ulink/Dlink words
// and parent-table block once, streams the worklist through one AND, one
// pick (a trailing-zeros under first-fit, the Scorer under any other
// policy) and two bit clears per request, writes the port to a
// fixed-stride arena (request i, level h at arena[i*L+h]), and compacts
// the survivors in place, in order. An Outcome is written exactly once,
// whole, at its verdict — the grant, or the first conflict — so the
// 72-byte records are never read back during the sweep, and Counters and
// the grant count are summed in locals and folded in at the end.
// Request-major traversal is the same SweepWords over a one-request
// worklist, once per request in processing order — the order of the
// paper's Section 6 P-blocks, which take one request at a time.
// internal/parsched runs each shard through the same SweepWords. Local
// picks from the Ulink word with the same Scorer. The differential test in
// word_test.go holds SweepWords, the level pipeline and both traversals
// to the plain []bool Level-wise of internal/core/coretest.
//
// # The level pipeline
//
// A large batch runs the same sweep on two CPUs, as the paper's P-block
// chain runs it in hardware (internal/hardware): the caller preps each
// request and resolves level 0, a process-wide helper goroutine reads the
// caller's records in the same order and climbs levels 1…H−1. Level-major
// order is what makes this bit-identical: a level-h step reads and writes
// only level-h rows (Theorem 2), both stages keep the arbitration order,
// and a rollback, which reaches below its level, runs in level-major only
// once the levels below are fully swept, so running the rollbacks after
// the batch changes no decision. The pipeline engages for batches of at
// least pipelineMin (1024) first-fit level-major requests, table view, two
// or more link levels, with GOMAXPROCS ≥ 2 and the helper not
// serving another caller; everything else — every fabric epoch among them
// — runs SweepWords. The helper is started by the first batch that would engage
// it, polls for 250 µs after each job and then parks; a batch that finds
// it parked wakes it for the batches that follow and runs SweepWords
// itself (EXPERIMENTS E31).
package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/linkstate"
	"repro/internal/topology"
)

// Request is one connection request between two processing nodes.
type Request struct {
	Src int
	Dst int
}

// Outcome records what the scheduler did with one request.
type Outcome struct {
	Request
	H         int   // lowest-common-ancestor level; 0 means same switch
	Granted   bool  // whether the connection was fully established
	Ports     []int // upward port per level 0..H-1 when granted
	FailLevel int   // level of the first unresolvable conflict; -1 if granted
	FailDown  bool  // local schedulers: conflict found on the downward path
}

// Result is the outcome of scheduling one batch.
type Result struct {
	Scheduler string
	Outcomes  []Outcome
	Granted   int
	Total     int
	Ops       Counters
}

// Ratio returns the schedulability ratio granted/total (1 for an empty
// batch, matching "no request was denied").
func (r *Result) Ratio() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.Granted) / float64(r.Total)
}

// Counters tallies the elementary scheduling operations, used by the
// complexity comparison (the paper argues O(l·log_l N) for Level-wise
// versus O(2l·log_l N) for the conventional scheduler).
type Counters struct {
	VectorReads int // link-availability vector fetches
	VectorANDs  int // Ulink AND Dlink combinations
	PortPicks   int // priority-selector invocations
	Allocs      int // channel allocations
	Releases    int // channel releases (rollback / teardown)
	// Steps counts sequential decision steps (level visits): the
	// Level-wise scheduler settles both directions of a level in one
	// step (~l per request), while the local scheduler visits each level
	// once climbing and once descending (~2l) — the complexity gap the
	// paper states.
	Steps int
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.VectorReads += other.VectorReads
	c.VectorANDs += other.VectorANDs
	c.PortPicks += other.PortPicks
	c.Allocs += other.Allocs
	c.Releases += other.Releases
	c.Steps += other.Steps
}

// PortPolicy selects which available port a scheduler takes.
type PortPolicy int

// Port-selection policies.
const (
	// FirstFit takes the lowest-numbered available port (the paper:
	// "we select the first available port").
	FirstFit PortPolicy = iota
	// RandomFit takes a uniformly random available port.
	RandomFit
	// LeastLoaded takes the available port whose parent switch has the
	// most free upward capacity (one-level lookahead); ties break low.
	LeastLoaded
)

// String names the policy.
func (p PortPolicy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case RandomFit:
		return "random"
	case LeastLoaded:
		return "least-loaded"
	default:
		return fmt.Sprintf("PortPolicy(%d)", int(p))
	}
}

// Order controls the sequence in which a batch's requests are processed.
type Order int

// Request processing orders.
const (
	// NaturalOrder processes requests as given.
	NaturalOrder Order = iota
	// ShuffledOrder processes requests in a random order.
	ShuffledOrder
	// DeepestFirst processes requests with the highest common-ancestor
	// level first (they have the most levels at which to conflict).
	DeepestFirst
)

// String names the order.
func (o Order) String() string {
	switch o {
	case NaturalOrder:
		return "natural"
	case ShuffledOrder:
		return "shuffled"
	case DeepestFirst:
		return "deepest-first"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Traversal controls the Level-wise scheduler's outer loop.
type Traversal int

// Traversal orders for the Level-wise scheduler.
const (
	// LevelMajor schedules every request at level 0, then every survivor
	// at level 1, and so on — the paper's Figure 7 pseudo-code.
	LevelMajor Traversal = iota
	// RequestMajor routes each request through all its levels before the
	// next request starts — the order the pipelined hardware realizes.
	RequestMajor
)

// String names the traversal.
func (tv Traversal) String() string {
	switch tv {
	case LevelMajor:
		return "level-major"
	case RequestMajor:
		return "request-major"
	default:
		return fmt.Sprintf("Traversal(%d)", int(tv))
	}
}

// Options tune a scheduler. The zero value reproduces the paper's
// configuration: first-fit ports, natural order, level-major traversal,
// no rollback, no retries. No option observes single decisions: a
// request's Outcome — its ports, or FailLevel and FailDown — is the record
// of what the scheduler did with it (ftsched -trace prints its denial
// report from the Outcomes).
type Options struct {
	Policy    PortPolicy
	Order     Order
	Traversal Traversal
	// Rollback releases a failed request's already-allocated channels so
	// later requests can use them (the paper's pseudo-code does not).
	Rollback bool
	// Retries re-attempts a failed request from scratch up to this many
	// extra times (local schedulers only; needs a random element to make
	// progress, so it forces RandomFit on retry attempts).
	Retries int
	// Rand drives RandomFit, ShuffledOrder and retries. Nil means a
	// fixed-seed source, keeping runs reproducible by default.
	Rand *rand.Rand
	// ReuseCost, when positive, replaces the port policy with the
	// reconfiguration-cost-aware pick (Costly Circuits, PAPERS.md): among
	// the available ports the one whose parent switches already carry the
	// most held circuits wins, with the marginal value of overlap capped
	// at ReuseCost (greedy submodular-style saturation). Ties break low,
	// so ReuseCost behaves like first-fit on an idle fabric; it scores
	// whatever circuits the link state holds when the batch is swept.
	ReuseCost int
}

func (o Options) rng() *rand.Rand {
	if o.Rand != nil {
		return o.Rand
	}
	return rand.New(rand.NewSource(1))
}

// Scheduler routes a batch of requests against a link state, mutating the
// state to reflect granted connections.
type Scheduler interface {
	Name() string
	Schedule(st *linkstate.State, reqs []Request) *Result
}

// OrderIndices returns processing indices for the batch under the given
// order. It is exported for internal/parsched, whose deterministic mode
// must sequence requests exactly as the sequential schedulers do.
func OrderIndices(tree *topology.Tree, reqs []Request, o Order, rng *rand.Rand) []int {
	return orderIndicesInto(make([]int, len(reqs)), tree, reqs, o, rng)
}

// orderIndicesInto fills idx (len(reqs)) with processing indices without
// allocating, except for the sort bookkeeping of DeepestFirst.
func orderIndicesInto(idx []int, tree *topology.Tree, reqs []Request, o Order, rng *rand.Rand) []int {
	for i := range idx {
		idx[i] = i
	}
	switch o {
	case ShuffledOrder:
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	case DeepestFirst:
		depth := make([]int, len(reqs))
		for i, r := range reqs {
			depth[i] = tree.AncestorLevel(r.Src, r.Dst)
		}
		sort.SliceStable(idx, func(a, b int) bool { return depth[idx[a]] > depth[idx[b]] })
	}
	return idx
}

// NewOutcomes returns the initial outcome records for a batch (exported
// for internal/parsched).
func NewOutcomes(tree *topology.Tree, reqs []Request) []Outcome {
	outs := make([]Outcome, len(reqs))
	for i, r := range reqs {
		outs[i] = Outcome{
			Request:   r,
			H:         tree.AncestorLevel(r.Src, r.Dst),
			FailLevel: -1,
		}
	}
	return outs
}

func finish(name string, outs []Outcome, ops Counters) *Result {
	res := &Result{Scheduler: name, Outcomes: outs, Total: len(outs), Ops: ops}
	for i := range outs {
		if outs[i].Granted {
			res.Granted++
		}
	}
	return res
}

// Scorer is the one port-selection seam: the paper's priority selector,
// generalized from first-fit to every policy. Every Level-wise, Local and
// parsched racy pick goes through Pick, on one availability word; the word
// kernel's first-fit (claimPort) is Pick's FirstFit case compiled to one
// trailing-zeros.
//
// ReuseCost, when positive, replaces Policy with the
// reconfiguration-cost-aware score (Options.ReuseCost): a free port scores
// the channels its two parent switches — the σ-side up-parent and the
// δ-side mirror parent — already have allocated, capped at ReuseCost (the
// submodular saturation: past that, more overlap buys nothing). Packing
// new circuits onto switches that already carry held ones keeps the
// working set of switches small, so future reconfigurations touch fewer
// distinct resources. Failed channels are masked out of the availability
// rows, so a faulted parent scores as if loaded — the conservative
// choice: routes through it are the ones a repair would re-tear.
// LeastLoaded scores a free port by the σ-side parent's free upward
// channels (one-level lookahead). A scored pick takes the highest score,
// ties low, and is first-fit at the top link level, which has no parent
// rows, and on an idle fabric, where every reuse score is 0.
type Scorer struct {
	Policy    PortPolicy
	ReuseCost int
	Rand      *rand.Rand // drives RandomFit
}

// firstFit reports whether k picks the lowest free port at every level.
func (k Scorer) firstFit() bool { return k.Policy == FirstFit && k.ReuseCost == 0 }

// NthSet returns the index of the rank-th lowest set bit of row (rank 0
// is the lowest): the port a RandomFit draw of rank picks from an
// availability row. rank must be below the row's popcount.
func NthSet(row uint64, rank int) int {
	for ; rank > 0; rank-- {
		row &= row - 1
	}
	return bits.TrailingZeros64(row)
}

// Pick returns the port k selects from avail — the AND-ed availability of
// the level-h switch pair (σ, δ), port p at bit p — or -1 when no port is
// free. RandomFit makes one Rand.Intn(popcount) draw, and none when avail
// is empty.
func (k Scorer) Pick(st *linkstate.State, h, sigma, delta int, avail uint64) int {
	if avail == 0 {
		return -1
	}
	if k.ReuseCost == 0 && k.Policy == RandomFit {
		return NthSet(avail, k.Rand.Intn(bits.OnesCount64(avail)))
	}
	tree := st.Tree()
	if k.ReuseCost == 0 && k.Policy != LeastLoaded || h+1 == tree.LinkLevels() {
		return bits.TrailingZeros64(avail)
	}
	best, bestScore := -1, -1
	for ; avail != 0; avail &= avail - 1 {
		p := bits.TrailingZeros64(avail)
		score := bits.OnesCount64(st.ULink(h+1, tree.UpParent(h, sigma, p)))
		if k.ReuseCost > 0 {
			score = min(k.ReuseCost, 2*tree.Parents()-score-bits.OnesCount64(st.DLink(h+1, tree.UpParent(h, delta, p))))
		}
		if score > bestScore {
			best, bestScore = p, score
		}
	}
	return best
}
