package hardware

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/linkstate"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestClockCalibration(t *testing.T) {
	// The paper's post-P&R synthesis: 15/17/19 ns single-request latency
	// for 4x4, 8x8, 16x16 switches at 6 cycles.
	for _, c := range []struct {
		w      int
		single float64
	}{{4, 15}, {8, 17}, {16, 19}} {
		if got := 6 * ClockNS(c.w); !approx(got, c.single, 1e-9) {
			t.Errorf("w=%d: 6T = %v ns, paper says %v", c.w, got, c.single)
		}
	}
	if ClockNS(0) != ClockNS(1) {
		t.Error("degenerate width not clamped")
	}
	if ClockNS(1) < 1 {
		t.Error("clock floor violated")
	}
}

func TestSingleRequestLatency(t *testing.T) {
	// Three-level tree: 2 P-blocks, 6-cycle latency.
	p := New(topology.MustNew(3, 4, 4))
	if p.Blocks() != 2 {
		t.Fatalf("blocks = %d", p.Blocks())
	}
	res, tm := p.Schedule([]core.Request{{Src: 0, Dst: 63}})
	if res.Granted != 1 {
		t.Fatalf("granted %d", res.Granted)
	}
	if tm.Cycles != 6 {
		t.Fatalf("cycles = %d want 6", tm.Cycles)
	}
	if !approx(tm.SingleRequestNS, 15, 1e-9) || !approx(tm.BatchNS, 15, 1e-9) {
		t.Fatalf("timing = %+v", tm)
	}
}

func TestPaperTable1(t *testing.T) {
	// Table 1: N = 64 (4x4), 512 (8x8), 4096 (16x16), all three-level.
	cases := []struct {
		w              int
		n              int
		singleNS       float64
		allPipelinedNS float64
	}{
		{4, 64, 15, 480},
		{8, 512, 17, 4352},
		{16, 4096, 19, 38912},
	}
	for _, c := range cases {
		tree := topology.MustNew(3, c.w, c.w)
		if tree.Nodes() != c.n {
			t.Fatalf("FT(3,%d) has %d nodes, want %d", c.w, tree.Nodes(), c.n)
		}
		p := New(tree)
		g := traffic.NewGenerator(c.n, 1)
		reqs := g.MustBatch(traffic.RandomPermutation)
		_, tm := p.Schedule(reqs)
		if !approx(tm.SingleRequestNS, c.singleNS, 1e-9) {
			t.Errorf("w=%d single = %v want %v", c.w, tm.SingleRequestNS, c.singleNS)
		}
		if !approx(tm.PipelinedBatchNS, c.allPipelinedNS, 1e-6) {
			t.Errorf("w=%d all = %v want %v", c.w, tm.PipelinedBatchNS, c.allPipelinedNS)
		}
		// The cycle-exact makespan includes pipeline fill: 3N+3 cycles,
		// within 5% of the paper's throughput accounting.
		if tm.Cycles != uint64(3*c.n+3) {
			t.Errorf("w=%d cycles = %d want %d", c.w, tm.Cycles, 3*c.n+3)
		}
		if rel := (tm.BatchNS - c.allPipelinedNS) / c.allPipelinedNS; rel > 0.05 || rel < 0 {
			t.Errorf("w=%d makespan %v deviates %.1f%% from paper %v", c.w, tm.BatchNS, 100*rel, c.allPipelinedNS)
		}
	}
}

func TestAllRequestsUnder40Microseconds(t *testing.T) {
	// "Using less than 40 µs, all 4096 communication requests can be
	// scheduled."
	tree := topology.MustNew(3, 16, 16)
	p := New(tree)
	g := traffic.NewGenerator(4096, 2)
	_, tm := p.Schedule(g.MustBatch(traffic.RandomPermutation))
	if tm.BatchNS >= 40000 {
		t.Fatalf("batch took %.0f ns, paper promises < 40 µs", tm.BatchNS)
	}
}

func TestMatchesSoftwareLevelWise(t *testing.T) {
	// The pipeline must produce the same grant set as the software
	// Level-wise scheduler (first-fit, no rollback). FT(3,16,16) is Table
	// 1's 4096-node system, where a permutation is large enough for the
	// software's own level pipeline (core's pipeline.go) to engage when
	// GOMAXPROCS is 2 or more: the P-block model is checked against it.
	shapes := [][3]int{{2, 4, 4}, {3, 4, 4}, {4, 3, 3}, {3, 8, 8}, {3, 16, 16}}
	for _, sh := range shapes {
		tree := topology.MustNew(sh[0], sh[1], sh[2])
		g := traffic.NewGenerator(tree.Nodes(), 5)
		for trial := 0; trial < 5; trial++ {
			reqs := g.MustBatch(traffic.RandomPermutation)
			p := New(tree)
			hw, _ := p.Schedule(reqs)
			sw := core.NewLevelWise().Schedule(linkstate.New(tree), reqs)
			if hw.Granted != sw.Granted {
				t.Fatalf("FT(%v): hardware %d vs software %d", sh, hw.Granted, sw.Granted)
			}
			for i := range hw.Outcomes {
				ho, so := hw.Outcomes[i], sw.Outcomes[i]
				if ho.Granted != so.Granted {
					t.Fatalf("FT(%v) outcome %d: granted %v vs %v", sh, i, ho.Granted, so.Granted)
				}
				if ho.Granted {
					for k := range ho.Ports {
						if ho.Ports[k] != so.Ports[k] {
							t.Fatalf("FT(%v) outcome %d: ports %v vs %v", sh, i, ho.Ports, so.Ports)
						}
					}
				}
			}
			if err := core.Verify(tree, hw); err != nil {
				t.Fatalf("FT(%v): %v", sh, err)
			}
		}
	}
}

func TestResetClearsState(t *testing.T) {
	tree := topology.MustNew(3, 4, 4)
	p := New(tree)
	g := traffic.NewGenerator(64, 7)
	reqs := g.MustBatch(traffic.RandomPermutation)
	first, _ := p.Schedule(reqs)
	p.Reset()
	second, _ := p.Schedule(reqs)
	if first.Granted != second.Granted {
		t.Fatalf("after Reset: %d vs %d", first.Granted, second.Granted)
	}
	// Without Reset, occupancy persists and fewer requests succeed.
	third, _ := p.Schedule(reqs)
	if third.Granted > second.Granted {
		t.Fatalf("stateful rerun granted more: %d > %d", third.Granted, second.Granted)
	}
}

func TestEmptyBatch(t *testing.T) {
	p := New(topology.MustNew(3, 4, 4))
	res, tm := p.Schedule(nil)
	if res.Total != 0 || tm.Cycles != 0 {
		t.Fatalf("empty batch: %+v %+v", res, tm)
	}
}

func TestSingleLevelTree(t *testing.T) {
	p := New(topology.MustNew(1, 4, 4))
	res, tm := p.Schedule([]core.Request{{Src: 0, Dst: 3}})
	if res.Granted != 1 {
		t.Fatalf("granted %d", res.Granted)
	}
	if tm.Cycles != 0 {
		t.Fatalf("single-level tree consumed %d cycles", tm.Cycles)
	}
}

func TestIIIsThreeCycles(t *testing.T) {
	// N requests: makespan = 3(N-1) + 3·blocks cycles.
	tree := topology.MustNew(3, 4, 4)
	g := traffic.NewGenerator(64, 9)
	for _, n := range []int{1, 2, 5, 64} {
		p := New(tree)
		reqs := g.MustBatch(traffic.RandomPermutation)[:n]
		_, tm := p.Schedule(reqs)
		want := uint64(3*(n-1) + 6)
		if tm.Cycles != want {
			t.Fatalf("n=%d: cycles %d want %d", n, tm.Cycles, want)
		}
	}
}

func TestString(t *testing.T) {
	got := New(topology.MustNew(3, 4, 4)).String()
	if got == "" {
		t.Fatal("empty String")
	}
}

func BenchmarkPipeline4096(b *testing.B) {
	tree := topology.MustNew(3, 16, 16)
	g := traffic.NewGenerator(4096, 1)
	reqs := g.MustBatch(traffic.RandomPermutation)
	p := New(tree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset()
		p.Schedule(reqs)
	}
}

func TestEstimateReproducesClock(t *testing.T) {
	// The structural critical-path model must reproduce the calibrated
	// clock periods for the synthesized widths: 6T = 11 + 2·log2(w)
	// gate delays.
	for _, w := range []int{4, 8, 16} {
		tree := topology.MustNew(3, w, w)
		r := Estimate(tree)
		if !approx(r.ClockNS, ClockNS(w), 1e-9) {
			t.Errorf("w=%d: area-model clock %v != calibrated %v", w, r.ClockNS, ClockNS(w))
		}
	}
}

func TestEstimateMemoryExact(t *testing.T) {
	// Memory is 2 bits (one Ulink + one Dlink) per physical link.
	tree := topology.MustNew(3, 4, 4)
	r := Estimate(tree)
	if r.MemoryBits != 2*tree.TotalLinks() {
		t.Fatalf("memory bits %d want %d", r.MemoryBits, 2*tree.TotalLinks())
	}
	if r.Blocks != 2 {
		t.Fatalf("blocks = %d", r.Blocks)
	}
}

func TestEstimateScaling(t *testing.T) {
	small := Estimate(topology.MustNew(3, 4, 4))
	big := Estimate(topology.MustNew(3, 16, 16))
	if big.MemoryBits <= small.MemoryBits || big.ALUTs <= small.ALUTs ||
		big.Registers <= small.Registers || big.CriticalPathLevels <= small.CriticalPathLevels {
		t.Fatalf("resources did not grow with width:\n%v\n%v", small, big)
	}
	deeper := Estimate(topology.MustNew(4, 4, 4))
	if deeper.Blocks != 3 || deeper.ALUTs <= small.ALUTs {
		t.Fatalf("resources did not grow with depth: %v", deeper)
	}
}

func TestEstimateString(t *testing.T) {
	if Estimate(topology.MustNew(2, 4, 4)).String() == "" {
		t.Fatal("empty String")
	}
}
