package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/linkstate"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// FatTree is a fat-tree topology FT(l, m, w); see NewFatTree.
type FatTree = topology.Tree

// Request is one connection request between two processing nodes.
type Request = core.Request

// Result is a scheduled batch with per-request outcomes; Result.Ratio()
// is the schedulability ratio.
type Result = core.Result

// Outcome records what the scheduler did with one request.
type Outcome = core.Outcome

// Scheduler routes request batches against a link state.
type Scheduler = core.Scheduler

// LinkState tracks per-channel availability; schedulers mutate it, so a
// sequence of batches on one LinkState models incremental allocation.
type LinkState = linkstate.State

// Options tunes a scheduler (port policy, ordering, rollback, retries).
type Options = core.Options

// NewFatTree constructs FT(l, m, w): l switch levels, m children and w
// parents per switch, m^l processing nodes. The paper's symmetric trees
// use m == w.
func NewFatTree(levels, children, parents int) (*FatTree, error) {
	return topology.New(levels, children, parents)
}

// NewLinkState returns a fresh all-available link state for the tree.
func NewLinkState(tree *FatTree) *LinkState { return linkstate.New(tree) }

// NewScheduler builds a scheduler from an internal/sched registry spec,
// e.g. "level-wise,policy=random,rollback", "backtrack,depth=4" or
// "parallel,mode=racy,workers=8". Unknown families and parameters are
// reported with the nearest valid alternatives. The named constructors
// below are shorthands for the most common specs.
func NewScheduler(spec string) (Scheduler, error) { return sched.Parse(spec) }

// NewLevelWise returns the paper's Level-wise global scheduler with its
// published defaults (first-fit port selection, level-major traversal) —
// spec "level-wise".
func NewLevelWise() Scheduler { return sched.MustParse("level-wise") }

// NewLevelWiseWith returns a Level-wise scheduler with custom options
// (for Options values specs cannot express, such as a caller-owned
// random source).
func NewLevelWiseWith(opts Options) Scheduler { return sched.Wrap(&core.LevelWise{Opts: opts}) }

// NewLocalRandom returns the conventional adaptive baseline: upward ports
// chosen randomly from the locally available set (the scheme the paper's
// Section 1 describes) — spec "local-random".
func NewLocalRandom() Scheduler { return sched.MustParse("local-random") }

// NewLocalGreedy returns the greedy (first-fit) local baseline — spec
// "local-greedy".
func NewLocalGreedy() Scheduler { return sched.MustParse("local-greedy") }

// NewOptimal returns the rearrangeable reference scheduler (recursive
// edge coloring): 100% schedulability for permutations when w >= m —
// spec "optimal".
func NewOptimal() Scheduler { return sched.MustParse("optimal") }

// Permutation generates a random permutation workload over the tree's
// nodes, deterministically from the seed.
func Permutation(tree *FatTree, seed int64) []Request {
	return traffic.NewGenerator(tree.Nodes(), seed).MustBatch(traffic.RandomPermutation)
}

// Schedule routes one batch on a fresh network and verifies the result's
// link-safety before returning it.
func Schedule(tree *FatTree, s Scheduler, reqs []Request) (*Result, error) {
	res := s.Schedule(linkstate.New(tree), reqs)
	if err := core.Verify(tree, res); err != nil {
		return nil, fmt.Errorf("repro: scheduler %q produced an inconsistent result: %w", s.Name(), err)
	}
	return res, nil
}

// Comparison is the outcome of one head-to-head batch.
type Comparison struct {
	Local  *Result
	Global *Result
}

// Improvement returns the absolute schedulability-ratio gain of the
// Level-wise scheduler over the local baseline on this batch.
func (c Comparison) Improvement() float64 { return c.Global.Ratio() - c.Local.Ratio() }

// Compare runs the paper's head-to-head — conventional local adaptive
// scheduling versus the Level-wise global scheduler — on one batch.
func Compare(tree *FatTree, reqs []Request) (Comparison, error) {
	local, err := Schedule(tree, NewLocalRandom(), reqs)
	if err != nil {
		return Comparison{}, err
	}
	global, err := Schedule(tree, NewLevelWise(), reqs)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Local: local, Global: global}, nil
}

// Verify replays a result against a fresh link state and reports the
// first inconsistency (nil if the result is link-safe and well formed).
func Verify(tree *FatTree, res *Result) error { return core.Verify(tree, res) }

// Fabric is the concurrent serving layer: a goroutine-safe manager that
// owns a live LinkState and admits long-lived connections from many
// clients, coalescing requests into atomically scheduled epochs. See
// internal/fabric for the full contract.
type Fabric = fabric.Manager

// FabricConfig tunes a Fabric (epoch batch size, flush timer, queue
// bound, admission timeout, scheduler).
type FabricConfig = fabric.Config

// FabricHandle is a granted connection; release it exactly once.
type FabricHandle = fabric.Handle

// ErrUnroutable is returned (wrapped, with the failing level attached)
// by Fabric.Connect when no conflict-free path exists at admission time;
// test with errors.Is. The circuit is lost, not queued — callers decide
// whether to retry.
var ErrUnroutable = fabric.ErrUnroutable

// FabricStats is a Fabric observability snapshot (counters, epoch size
// and latency distributions, live utilization).
type FabricStats = fabric.Stats

// NewFabric starts a fabric manager serving Connect/Release over the
// tree. Stop it with Close, which drains the admission queue.
func NewFabric(tree *FatTree, cfg FabricConfig) (*Fabric, error) {
	cfg.Tree = tree
	return fabric.New(cfg)
}

// MulticastRequest is a one-to-many connection request (extension E13).
type MulticastRequest = core.MulticastRequest

// MulticastResult is a scheduled multicast batch.
type MulticastResult = core.MulticastResult

// ScheduleMulticast routes one-to-many connections with the Level-wise
// generalization (the per-level AND spans every branch's mirror switch)
// on a fresh network, verifying the trees before returning.
func ScheduleMulticast(tree *FatTree, reqs []MulticastRequest) (*MulticastResult, error) {
	res := (&core.MulticastLevelWise{}).Schedule(linkstate.New(tree), reqs)
	if err := core.VerifyMulticast(tree, res); err != nil {
		return nil, fmt.Errorf("repro: multicast scheduling produced an inconsistent result: %w", err)
	}
	return res, nil
}
