package parsched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// localBatch draws n endpoint pairs where a frac fraction is confined to
// one level-(l-2) subtree (endpoints drawn from the same subtree, cycling
// across subtrees for spread) and the rest is uniform — the skewed/local
// traffic the shard engine exists for.
func localBatch(tree *topology.Tree, n int, frac float64, seed int64) []core.Request {
	rng := rand.New(rand.NewSource(seed))
	lvl := tree.Levels() - 2
	if lvl < 1 {
		return randomBatch(tree, n, seed)
	}
	per := tree.Nodes() / tree.Subtrees(lvl)
	reqs := make([]core.Request, n)
	for i := range reqs {
		if rng.Float64() < frac {
			base := (i % tree.Subtrees(lvl)) * per
			reqs[i] = core.Request{Src: base + rng.Intn(per), Dst: base + rng.Intn(per)}
		} else {
			reqs[i] = core.Request{Src: rng.Intn(tree.Nodes()), Dst: rng.Intn(tree.Nodes())}
		}
	}
	return reqs
}

// releaseAll tears down every channel a result's outcomes still hold.
func releaseAll(st *linkstate.State, res *core.Result) {
	var ops core.Counters
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if len(o.Ports) > 0 {
			core.ReleaseRoute(st, o.Src, o.Dst, o.Ports, &ops)
		}
	}
}

// TestShardConflictFreeReleaseClean is the shard-mode safety property
// test: across randomized shapes (pow2 XOR/shift and general-path LCA),
// traffic mixes, worker counts, steal, and rollback settings, every
// Result must replay conflict-free on a fresh state (core.Verify), the
// outcomes must account for exactly the channels the state holds, and
// releasing every held route must return the state to all-free. Under
// -race this also proves the plain per-shard operations never touch a
// row another worker owns.
func TestShardConflictFreeReleaseClean(t *testing.T) {
	shapes := append([][3]int{{3, 8, 8}, {3, 6, 6}, {4, 2, 2}}, testShapes...)
	for _, shape := range shapes {
		tree := topology.MustNew(shape[0], shape[1], shape[2])
		fresh := linkstate.New(tree)
		for _, frac := range []float64{0, 0.5, 1} {
			for _, steal := range []bool{false, true} {
				for _, rollback := range []bool{false, true} {
					for _, workers := range []int{2, 4, 16} {
						eng := New(Config{Workers: workers, Mode: Shard, Steal: steal,
							Opts: core.Options{Rollback: rollback}})
						st := linkstate.New(tree)
						seed := int64(workers)*1000 + int64(frac*10) + int64(shape[0])
						reqs := localBatch(tree, 3*tree.Nodes(), frac, seed)
						res := eng.Schedule(st, reqs)
						label := fmt.Sprintf("FT(%d,%d,%d)/local%.1f/steal=%v/rollback=%v/w%d",
							shape[0], shape[1], shape[2], frac, steal, rollback, workers)
						if err := core.Verify(tree, res); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if held, occ := core.HeldChannels(res), st.OccupiedCount(); held != occ {
							t.Fatalf("%s: outcomes hold %d channels, state says %d occupied", label, held, occ)
						}
						releaseAll(st, res)
						if occ := st.OccupiedCount(); occ != 0 {
							t.Fatalf("%s: %d channels still occupied after releasing every route", label, occ)
						}
						if !st.Equal(fresh) {
							t.Fatalf("%s: state differs from fresh after release", label)
						}
					}
				}
			}
		}
	}
}

// TestShardDeterministicAcrossRuns: each shard is processed sequentially
// in batch order by exactly one worker and shards are row-disjoint, so
// the grant set must not depend on goroutine interleaving — two runs
// (with and without stealing) must agree bit for bit.
func TestShardDeterministicAcrossRuns(t *testing.T) {
	for _, shape := range [][3]int{{3, 4, 4}, {4, 3, 3}} {
		tree := topology.MustNew(shape[0], shape[1], shape[2])
		reqs := localBatch(tree, 4*tree.Nodes(), 0.7, 11)
		var want *core.Result
		var wantSt *linkstate.State
		for round := 0; round < 4; round++ {
			eng := New(Config{Workers: 8, Mode: Shard, Steal: round%2 == 1,
				Opts: core.Options{Rollback: true}})
			st := linkstate.New(tree)
			got := eng.Schedule(st, reqs)
			if want == nil {
				want, wantSt = got, st
				continue
			}
			sameResult(t, fmt.Sprintf("FT(%d,%d,%d)/round%d", shape[0], shape[1], shape[2], round), got, want)
			if !st.Equal(wantSt) {
				t.Fatalf("FT(%d,%d,%d)/round%d: final link states differ", shape[0], shape[1], shape[2], round)
			}
		}
	}
}

// TestShardMatchesSequentialOnDisjointTraffic: when every request is
// confined to its own subtree there are no root-crossing requests and no
// cross-shard ordering effects, so the shard engine must match the
// sequential scheduler bit for bit.
func TestShardMatchesSequentialOnDisjointTraffic(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	reqs := localBatch(tree, 2*tree.Nodes(), 1, 5)
	opts := core.Options{Rollback: true}
	stSeq, stShard := linkstate.New(tree), linkstate.New(tree)
	want := (&core.LevelWise{Opts: opts}).Schedule(stSeq, reqs)
	got := New(Config{Workers: 4, Mode: Shard, Opts: opts}).Schedule(stShard, reqs)
	sameResult(t, "disjoint traffic", got, want)
	if !stSeq.Equal(stShard) {
		t.Fatal("final link states differ")
	}
}

// TestShardDegenerateFallbacks pins the worker-count and shape
// degenerate cases: empty and single-request batches, single-subtree
// trees, and batches that populate at most one shard must run the
// sequential scheduler (observable through Result.Scheduler) instead of
// standing up idle workers.
func TestShardDegenerateFallbacks(t *testing.T) {
	flat := topology.MustNew(2, 4, 4) // l = 2: no level yields >= 2 subtrees
	deep := topology.MustNew(3, 4, 4)
	oneShard := make([]core.Request, 8) // all confined to deep's subtree 0
	for i := range oneShard {
		oneShard[i] = core.Request{Src: i % 16, Dst: (i * 3) % 16}
	}
	cases := []struct {
		label string
		tree  *topology.Tree
		reqs  []core.Request
	}{
		{"empty batch", deep, nil},
		{"batch of 1", deep, randomBatch(deep, 1, 1)},
		{"single-subtree tree", flat, randomBatch(flat, 32, 2)},
		{"single populated shard", deep, oneShard},
	}
	for _, tc := range cases {
		eng := New(Config{Workers: 8, Mode: Shard, Opts: core.Options{Rollback: true}})
		st := linkstate.New(tc.tree)
		res := eng.Schedule(st, tc.reqs)
		if res.Scheduler != "level-wise/rollback" {
			t.Fatalf("%s: scheduler %q, want the sequential fallback", tc.label, res.Scheduler)
		}
		if err := core.Verify(tc.tree, res); err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
	}
	// Workers above the batch size clamp down rather than falling over:
	// the schedule still runs (in parallel mode) and stays correct.
	eng := New(Config{Workers: 64, Mode: Shard, Opts: core.Options{Rollback: true}})
	st := linkstate.New(deep)
	res := eng.Schedule(st, localBatch(deep, 4, 1, 3))
	if err := core.Verify(deep, res); err != nil {
		t.Fatalf("workers>batch: %v", err)
	}
	// Same clamp for the other modes: 64 workers, 2 requests.
	for _, mode := range []Mode{Deterministic, Racy} {
		eng := New(Config{Workers: 64, Mode: mode, Opts: core.Options{Rollback: true}})
		st := linkstate.New(deep)
		if res := eng.Schedule(st, randomBatch(deep, 2, 4)); res.Total != 2 {
			t.Fatalf("%s workers>batch: total %d", mode, res.Total)
		}
	}
}

// TestShardLevelOverride: an explicit ShardLevel partitions finer than
// the default, and out-of-range levels fall back to sequential.
func TestShardLevelOverride(t *testing.T) {
	tree := topology.MustNew(4, 2, 2) // levels 1 and 2 both valid
	reqs := randomBatch(tree, 2*tree.Nodes(), 9)
	for _, lvl := range []int{1, 2} {
		eng := New(Config{Workers: 4, Mode: Shard, ShardLevel: lvl, Opts: core.Options{Rollback: true}})
		st := linkstate.New(tree)
		if err := core.Verify(tree, eng.Schedule(st, reqs)); err != nil {
			t.Fatalf("shard-level %d: %v", lvl, err)
		}
	}
	eng := New(Config{Workers: 4, Mode: Shard, ShardLevel: 3, Opts: core.Options{Rollback: true}})
	st := linkstate.New(tree)
	if res := eng.Schedule(st, reqs); res.Scheduler != "level-wise/rollback" {
		t.Fatalf("out-of-range shard level: scheduler %q, want the sequential fallback", res.Scheduler)
	}
}

// TestShardHighWorkerSmallTree drives 16 workers at small trees under
// every traffic mix — the high-worker-count configuration ci.sh re-runs
// under -race -count=2.
func TestShardHighWorkerSmallTree(t *testing.T) {
	for _, shape := range [][3]int{{3, 4, 2}, {3, 2, 2}} {
		tree := topology.MustNew(shape[0], shape[1], shape[2])
		for _, frac := range []float64{0, 1} {
			for _, steal := range []bool{false, true} {
				eng := New(Config{Workers: 16, Mode: Shard, Steal: steal, Opts: core.Options{Rollback: true}})
				st := linkstate.New(tree)
				res := eng.Schedule(st, localBatch(tree, 4*tree.Nodes(), frac, 13))
				if err := core.Verify(tree, res); err != nil {
					t.Fatalf("FT(%d,%d,%d)/local%.0f/steal=%v: %v", shape[0], shape[1], shape[2], frac, steal, err)
				}
				if held, occ := core.HeldChannels(res), st.OccupiedCount(); held != occ {
					t.Fatalf("FT(%d,%d,%d): outcomes hold %d, state %d", shape[0], shape[1], shape[2], held, occ)
				}
			}
		}
	}
}

// TestShardEngineIdentity covers the shard-mode Name plumbing.
func TestShardEngineIdentity(t *testing.T) {
	if got := New(Config{Workers: 4, Mode: Shard}).Name(); got != "parallel-level-wise/shard/w4" {
		t.Fatalf("Name = %q", got)
	}
	if got := New(Config{Workers: 4, Mode: Shard, Steal: true}).Name(); got != "parallel-level-wise/shard+steal/w4" {
		t.Fatalf("Name = %q", got)
	}
	if Shard.String() != "shard" {
		t.Fatalf("Shard.String() = %q", Shard.String())
	}
}

// TestShardHighWorkerTrackedState runs the shard engine on a load-tracking
// state, as the fabric would: shard workers count their claims with plain
// adds on the rows they own and settle the gauge once per sweep, the
// root-crossing remainder counts channel by channel afterwards. Under
// -race this proves the plain counters are never shared; the totals prove
// nothing was lost — the gauge equals the popcount truth and the
// cumulative counters equal the engine's own allocation count, over two
// batches on one state.
func TestShardHighWorkerTrackedState(t *testing.T) {
	for _, shape := range [][3]int{{3, 4, 2}, {3, 4, 4}, {4, 3, 3}} {
		tree := topology.MustNew(shape[0], shape[1], shape[2])
		for _, steal := range []bool{false, true} {
			for _, rollback := range []bool{false, true} {
				label := fmt.Sprintf("FT(%d,%d,%d)/steal=%v/rollback=%v", shape[0], shape[1], shape[2], steal, rollback)
				eng := New(Config{Workers: 16, Mode: Shard, Steal: steal, Opts: core.Options{Rollback: rollback}})
				st := linkstate.New(tree)
				st.TrackLoad()
				picked := uint64(0)
				for round := int64(0); round < 2; round++ {
					res := eng.Schedule(st, localBatch(tree, 2*tree.Nodes(), 0.6, 21+round))
					if res.Scheduler != eng.Name() {
						t.Fatalf("%s: ran on %q, not the shard engine", label, res.Scheduler)
					}
					picked += uint64(res.Ops.Allocs)
					if occ, want := st.LiveOccupancy(), int64(st.OccupiedCount()); occ != want {
						t.Fatalf("%s round %d: gauge %d, OccupiedCount %d", label, round, occ, want)
					}
					if got := st.TotalAllocs(); got != picked {
						t.Fatalf("%s round %d: TotalAllocs %d, the engine counted %d allocations", label, round, got, picked)
					}
				}
			}
		}
	}
}
