package federation

import (
	"context"
	"testing"

	"repro/internal/fabric"
	"repro/internal/topology"
)

// weightedRouter builds a 2-plane router of FT(2,4,4) planes with the
// given weights.
func weightedRouter(t *testing.T, w0, w1 float64) *Router {
	t.Helper()
	cfg := Config{Planes: []PlaneConfig{
		{Name: "a", Weight: w0, Fabric: fabric.Config{Tree: topology.MustNew(2, 4, 4), BatchSize: 1}},
		{Name: "b", Weight: w1, Fabric: fabric.Config{Tree: topology.MustNew(2, 4, 4), BatchSize: 1}},
	}}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close(context.Background()) })
	return r
}

// TestWeightedHashDistribution: under non-uniform weights the hash
// policy spreads first choices roughly proportionally to weight, stays
// deterministic per (src, dst) pair, and keeps every plane reachable
// as a failover candidate.
func TestWeightedHashDistribution(t *testing.T) {
	r := weightedRouter(t, 3, 1)
	if !r.weighted {
		t.Fatal("weights 3:1 did not mark the router weighted")
	}
	n := r.Nodes()
	first0, pairs := 0, 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			cand := []int{0, 1}
			r.orderPlanes(PolicyHash, cand, src, dst)
			again := []int{0, 1}
			r.orderPlanes(PolicyHash, again, src, dst)
			if cand[0] != again[0] || cand[1] != again[1] {
				t.Fatalf("hash order not deterministic for (%d,%d): %v vs %v", src, dst, cand, again)
			}
			if cand[0]+cand[1] != 1 {
				t.Fatalf("ordering lost a candidate: %v", cand)
			}
			pairs++
			if cand[0] == 0 {
				first0++
			}
		}
	}
	// Weight 3 of 4 total → expect ~75% of pairs to prefer plane 0.
	frac := float64(first0) / float64(pairs)
	if frac < 0.60 || frac > 0.90 {
		t.Errorf("plane 0 (weight 3) first for %.0f%% of %d pairs, want ~75%%", frac*100, pairs)
	}
}

// TestUniformWeightsKeepLegacyHash: equal (or defaulted) weights keep
// the original rotate-by-pair-hash ordering bit for bit.
func TestUniformWeightsKeepLegacyHash(t *testing.T) {
	for _, w := range []float64{0, 1, 2.5} {
		r := weightedRouter(t, w, w)
		if r.weighted {
			t.Fatalf("uniform weight %v marked the router weighted", w)
		}
		for _, pair := range [][2]int{{0, 1}, {3, 12}, {7, 2}} {
			cand := []int{0, 1}
			r.orderPlanes(PolicyHash, cand, pair[0], pair[1])
			want := pairHash(pair[0], pair[1]) % 2
			if cand[0] != want {
				t.Errorf("weight %v pair %v: first = %d, want rotate to %d", w, pair, cand[0], want)
			}
		}
	}
}

// TestWeightedLeastLoaded: least-loaded normalizes its load gauge by
// weight, so at equal raw load the heavier plane sorts first; at zero load
// the tie breaks by plane index.
func TestWeightedLeastLoaded(t *testing.T) {
	r := weightedRouter(t, 1, 2)
	// Zero occupancy on both: scores tie, index order wins.
	cand := []int{0, 1}
	r.orderPlanes(PolicyLeastLoaded, cand, 0, 1)
	if cand[0] != 0 {
		t.Errorf("idle tie broke to plane %d, want 0", cand[0])
	}
	// Load each plane with one identical circuit so raw occupancy is
	// equal and nonzero; weight 2 then reads as half as loaded.
	for _, p := range r.planes {
		c, err := p.surf.Admit(context.Background(), 0, r.Nodes()-1)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Release()
	}
	if r.planes[0].surf.Unavailable() != r.planes[1].surf.Unavailable() {
		t.Fatalf("setup skew: unavailable %d vs %d",
			r.planes[0].surf.Unavailable(), r.planes[1].surf.Unavailable())
	}
	cand = []int{0, 1}
	r.orderPlanes(PolicyLeastLoaded, cand, 0, 1)
	if cand[0] != 1 {
		t.Errorf("equal load ordered plane %d first, want heavier plane 1", cand[0])
	}
}

// TestWeightDefaulting: nonpositive config weights become 1 at runtime.
func TestWeightDefaulting(t *testing.T) {
	r := weightedRouter(t, 0, 1)
	for i, p := range r.planes {
		if p.weight != 1 {
			t.Errorf("plane %d weight = %v, want 1", i, p.weight)
		}
	}
	if r.weighted {
		t.Error("defaulted weights marked the router weighted")
	}
}
