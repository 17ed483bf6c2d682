package stats

import (
	"math"
	"math/rand"
	"testing"
)

// recordAll is the reference a Recent is held to: the retained samples
// themselves, dropped a generation at a time as Recent drops them.
type recordAll struct{ prev, cur []float64 }

func (r *recordAll) record(x float64) {
	if r.cur = append(r.cur, x); len(r.cur) == GenSize {
		r.prev, r.cur = r.cur, nil
	}
}

func (r *recordAll) samples() []float64 { return append(append([]float64(nil), r.prev...), r.cur...) }

// TestHistBucketEdges pins the layout: every integer up to 32 and every
// power of two in range is the lower edge of its own bucket, edges grow
// strictly and a bucket is at most 1/16 of its edge wide, and what falls
// outside the range lands in the end buckets.
func TestHistBucketEdges(t *testing.T) {
	own := make(map[int]float64)
	exact := []float64{0}
	for i := 1; i <= 32; i++ {
		exact = append(exact, float64(i))
	}
	for e := histMinExp; e <= histMaxExp; e++ {
		exact = append(exact, math.Ldexp(1, e))
	}
	for _, x := range exact {
		k := bucketOf(x)
		if got := bucketEdge(k); got != x {
			t.Errorf("%v counts in bucket %d, whose lower edge is %v", x, k, got)
		}
		if other, dup := own[k]; dup && other != x {
			t.Errorf("%v and %v share bucket %d", other, x, k)
		}
		own[k] = x
	}
	for k := 1; k < histBuckets-1; k++ {
		lo, hi := bucketEdge(k), bucketEdge(k+1)
		if hi <= lo || hi-lo > lo/16 {
			t.Fatalf("bucket %d is [%v, %v): wider than 1/16 of its edge", k, lo, hi)
		}
		if bucketOf(lo) != k || bucketOf(math.Nextafter(hi, 0)) != k {
			t.Fatalf("bucket %d = [%v, %v) does not hold its own ends", k, lo, hi)
		}
	}
	for _, x := range []float64{-3, 0, 1e-9, math.Nextafter(bucketEdge(1), 0)} {
		if k := bucketOf(x); k != 0 {
			t.Errorf("%v counts in bucket %d, want the bottom bucket", x, k)
		}
	}
	for _, x := range []float64{math.Ldexp(1, histMaxExp), 1e9, math.Inf(1)} {
		if k := bucketOf(x); k != histBuckets-1 {
			t.Errorf("%v counts in bucket %d, want the top bucket", x, k)
		}
	}
}

// TestHistOutOfRangeStillCounts: clamping a sample into an end bucket
// changes where its percentile reads, not the exact statistics.
func TestHistOutOfRangeStillCounts(t *testing.T) {
	var r Recent
	xs := []float64{-2, 1e-6, 3, 1e6}
	for _, x := range xs {
		r.Record(x)
	}
	h := r.Hist()
	got, want := h.Summary(), Summarize(xs)
	if got.N != want.N || got.Min != want.Min || got.Max != want.Max ||
		!approx(got.Mean, want.Mean, 1e-9) || !approx(got.StdDev, want.StdDev, 1e-6) {
		t.Fatalf("summary = %+v, want %+v", got, want)
	}
	if p := h.Percentile(1); p != 0 { // the bottom bucket's edge, inside [Min, Max]
		t.Errorf("p1 = %v, want 0", p)
	}
	if p := h.Percentile(99); p != math.Ldexp(1, histMaxExp) {
		t.Errorf("p99 = %v, want the top bucket's edge", p)
	}
}

// withinOneBucket reports whether got is what Hist.Percentile may return
// for the exact sample want: its bucket's lower edge, or the sample itself
// where [Min, Max] clamps the edge.
func withinOneBucket(got, want float64) bool {
	return got <= want && bucketOf(got) == bucketOf(want) && want-got <= got/16
}

// TestRecentMatchesPercentileOracle holds a Recent to Summarize,
// Percentile and Histogram over the samples it retains: on a seeded
// log-normal stream checked at many lengths (before, at and past the
// rotations) and on a constant stream, where everything is exact.
func TestRecentMatchesPercentileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var r Recent
	var ref recordAll
	percentiles := []float64{0, 1, 25, 50, 90, 95, 99, 99.9, 100}
	for i := 1; i <= 10000; i++ {
		x := math.Exp(rng.NormFloat64()*1.5 - 3) // median ≈ 0.05: an epoch latency in ms
		r.Record(x)
		ref.record(x)
		if i > 3 && i%1237 != 0 && i != GenSize-1 && i != GenSize && i != 2*GenSize && i != 10000 {
			continue
		}
		xs, h := ref.samples(), r.Hist()
		got, want := h.Summary(), Summarize(xs)
		if got.N != want.N || got.Min != want.Min || got.Max != want.Max ||
			!approx(got.Mean, want.Mean, 1e-12*float64(want.N)) || !approx(got.StdDev, want.StdDev, 1e-9) {
			t.Fatalf("after %d samples: summary %+v, the retained samples say %+v", i, got, want)
		}
		for _, p := range percentiles {
			if g, w := h.Percentile(p), Percentile(xs, p); !withinOneBucket(g, w) {
				t.Fatalf("after %d samples: p%v = %v, exact %v: more than a bucket apart", i, p, g, w)
			}
		}
		bins := h.Bins(8)
		if want.N < 2 {
			continue
		}
		total := 0
		for _, c := range bins {
			total += c
		}
		if len(bins) != 8 || total != want.N {
			t.Fatalf("after %d samples: bins %v hold %d samples, want %d in 8", i, bins, total, want.N)
		}
	}

	var c Recent
	for i := 0; i < 10000; i++ {
		c.Record(0.137)
	}
	h := c.Hist()
	if s := h.Summary(); !approx(s.Mean, 0.137, 1e-12) || s.Min != 0.137 || s.Max != 0.137 || s.StdDev != 0 {
		t.Fatalf("constant stream: %+v", s)
	}
	for _, p := range percentiles {
		if g := h.Percentile(p); g != 0.137 {
			t.Fatalf("constant stream: p%v = %v", p, g)
		}
	}
	if b := h.Bins(8); b != nil {
		t.Fatalf("constant stream: bins %v, want none", b)
	}
}

// TestHistSmallIntegersExact: the distributions the fabric keeps of
// counts (epoch sizes, repair depths) read exactly.
func TestHistSmallIntegersExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var r Recent
	var xs []float64
	for i := 0; i < 3000; i++ {
		x := float64(rng.Intn(33))
		r.Record(x)
		xs = append(xs, x)
	}
	h := r.Hist()
	for _, p := range []float64{1, 10, 50, 95, 99} {
		if g, w := h.Percentile(p), Percentile(xs, p); g != w {
			t.Errorf("p%v = %v, want %v exactly", p, g, w)
		}
	}
	got, want := h.Bins(8), Histogram(xs, 0, 32, 8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bins %v, Histogram says %v", got, want)
		}
	}
}

// TestRecentRotation: once warm a Recent holds between GenSize and
// 2·GenSize−1 samples, and a burst of slow samples is gone after two
// rotations.
func TestRecentRotation(t *testing.T) {
	var r Recent
	for i := 0; i < 100; i++ {
		r.Record(500) // the burst
	}
	lo, hi := math.MaxInt, 0
	for i := 100; i < 5*GenSize; i++ {
		r.Record(1)
		h := r.Hist()
		n := h.Summary().N
		if i+1 >= GenSize {
			lo, hi = min(lo, n), max(hi, n)
		}
		switch gone := i+1 >= 2*GenSize; {
		case gone && h.Summary().Max != 1:
			t.Fatalf("after %d samples the burst still shows: %+v", i+1, h.Summary())
		case !gone && (h.Summary().Max != 500 || h.Percentile(100) != 500):
			t.Fatalf("after %d samples the burst is already gone: %+v", i+1, h.Summary())
		}
	}
	if lo != GenSize || hi != 2*GenSize-1 {
		t.Fatalf("warm N ranged over [%d, %d], want [%d, %d]", lo, hi, GenSize, 2*GenSize-1)
	}
}

// TestHistMergeIsRecordAll: merging two histograms is recording both
// streams into one.
func TestHistMergeIsRecordAll(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a, b, all, empty Hist
	for i := 0; i < 5000; i++ {
		x := math.Exp(rng.NormFloat64() * 3)
		if i%3 == 0 {
			a.record(x)
		} else {
			b.record(x)
		}
		all.record(x)
	}
	a.merge(&b)
	a.merge(&empty)
	if a.n != all.n || a.min != all.min || a.max != all.max || a.count != all.count ||
		!approx(a.sum, all.sum, 1e-9*all.sum) || !approx(a.sumsq, all.sumsq, 1e-9*all.sumsq) {
		t.Fatal("merge differs from recording every sample into one histogram")
	}
	empty.merge(&all)
	if empty != all {
		t.Fatal("merging into an empty histogram is not a copy")
	}
}
