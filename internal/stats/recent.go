package stats

import "math"

// The bucket layout of a Hist is log-linear: every octave [2^e, 2^(e+1))
// from 2^histMinExp to 2^histMaxExp is cut into 16 equal sub-buckets, so a
// bucket is at most 1/16 of its own lower edge wide. One bucket below
// (lower edge 0) takes everything under 2^histMinExp, zero and negatives
// included, and one above takes everything from 2^histMaxExp up. Every
// integer up to 32 and every power of two in range is the lower edge of a
// bucket of its own.
const (
	histSubBits = 4
	histMinExp  = -13 // 2^-13 ≈ 1.2e-4
	histMaxExp  = 14  // 2^14 ≈ 1.6e4

	// histBuckets is the number of buckets of a Hist (434).
	histBuckets = (histMaxExp-histMinExp)<<histSubBits + 2

	// histLo is 2^histMinExp, the lower edge of bucket 1.
	histLo = 1.0 / (1 << -histMinExp)

	// histKeyShift leaves a float64's sign, exponent and top histSubBits
	// mantissa bits: for positive x that key grows by one per bucket.
	histKeyShift = 52 - histSubBits
	histMinKey   = (1023 + histMinExp) << histSubBits

	// GenSize is how many samples a Recent records before it rotates.
	GenSize = 4096
)

// bucketOf is the bucket x counts in.
func bucketOf(x float64) int {
	if !(x >= histLo) { // NaN lands here too
		return 0
	}
	return min(int(math.Float64bits(x)>>histKeyShift)-histMinKey+1, histBuckets-1)
}

// bucketEdge is the lower edge of bucket k.
func bucketEdge(k int) float64 {
	if k == 0 {
		return 0
	}
	return math.Float64frombits(uint64(k-1+histMinKey) << histKeyShift)
}

// Hist is a fixed-size summary of up to 65535 samples: exact count, sum,
// sum of squares, minimum and maximum, and a count per log-linear bucket.
// Read one from Recent.Hist; the zero value is empty.
type Hist struct {
	n          int
	sum, sumsq float64
	min, max   float64
	count      [histBuckets]uint16
}

func (h *Hist) record(x float64) {
	if h.n == 0 || x < h.min {
		h.min = x
	}
	if h.n == 0 || x > h.max {
		h.max = x
	}
	h.n++
	h.sum += x
	h.sumsq += x * x
	h.count[bucketOf(x)]++
}

// merge adds o's samples to h.
func (h *Hist) merge(o *Hist) {
	if o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	h.sumsq += o.sumsq
	for k := range h.count {
		h.count[k] += o.count[k]
	}
}

// Summary is Summarize of the recorded samples, from the running sums: N,
// Mean, Min and Max are exact, StdDev is exact up to the rounding of a sum
// of squares.
func (h *Hist) Summary() Summary {
	if h.n == 0 {
		return Summary{}
	}
	s := Summary{N: h.n, Mean: h.sum / float64(h.n), Min: h.min, Max: h.max}
	if h.max > h.min { // a constant stream has none, whatever the sums round to
		if v := (h.sumsq - h.sum*s.Mean) / float64(h.n-1); v > 0 {
			s.StdDev = math.Sqrt(v)
		}
	}
	return s
}

// valueOf is what the samples of bucket k read as: the bucket's lower edge,
// clamped to [Min, Max].
func (h *Hist) valueOf(k int) float64 { return min(max(bucketEdge(k), h.min), h.max) }

// Percentile is the lower edge of the bucket holding the sample Percentile
// would return (nearest rank), clamped to [Min, Max]: exact when that
// sample is an integer up to 32, a power of two in range or the only value
// recorded, and otherwise low by less than one bucket — under 1/16 (6.25 %)
// of the value returned, for samples inside the bucketed range. Empty
// samples return 0.
func (h *Hist) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := max(int(math.Ceil(p/100*float64(h.n)))-1, 0)
	seen := 0
	for k := range h.count {
		if seen += int(h.count[k]); seen > rank {
			return h.valueOf(k)
		}
	}
	return h.max // not reached: the counts sum to n
}

// Bins re-bins the samples into equal-width bins over [Min, Max] as
// Histogram does, counting each bucket's samples at the value Percentile
// reports for them. Nil when bins <= 0 or Max <= Min.
func (h *Hist) Bins(bins int) []int {
	if bins <= 0 || h.max <= h.min {
		return nil
	}
	out := make([]int, bins)
	width := (h.max - h.min) / float64(bins)
	for k := range h.count {
		if h.count[k] == 0 {
			continue
		}
		out[min(int((h.valueOf(k)-h.min)/width), bins-1)] += int(h.count[k])
	}
	return out
}

// Recent summarizes the most recent GenSize to 2·GenSize−1 samples of a
// stream in fixed space: two Hist generations, the one being filled and
// the one filled before it. Record costs a bucket increment and five
// running values; a snapshot is a plain copy of the struct, and nothing is
// ever sorted. It is not safe for concurrent use.
type Recent struct {
	gen [2]Hist
	cur int // the generation being filled
}

// Record adds one sample. The generation it fills is retired to "previous"
// and the older one dropped, so a sample is forgotten between GenSize and
// 2·GenSize samples after it was recorded.
func (r *Recent) Record(x float64) {
	g := &r.gen[r.cur]
	g.record(x)
	if g.n == GenSize {
		r.cur ^= 1
		r.gen[r.cur] = Hist{}
	}
}

// Hist returns the retained samples, previous and current generation
// merged.
func (r *Recent) Hist() Hist {
	h := r.gen[0]
	h.merge(&r.gen[1])
	return h
}
