package main

import "math/bits"

// hist is a log-bucket latency histogram over nanoseconds: 128 linear
// sub-buckets per power of two, so a bucket is at most 1/128 (0.78 %) of
// its value wide and a reported percentile is within 0.4 % of the sample
// it stands for. It is preallocated and fixed-size: recording never
// allocates, which is the point — a prototype that kept raw samples
// reached 380 MB RSS and perturbed the GC it was measuring.
type hist struct {
	n      uint64
	counts [histBuckets]uint32
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values at or above 2^histMaxBits ns (~69 s) land in the last bucket;
	// no operation here is allowed to take that long.
	histMaxBits = 36
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	v := uint64(ns)
	e := bits.Len64(v) - 1 - histSubBits
	b := (e+1)<<histSubBits | int(v>>uint(e))&(histSub-1)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// histValue is the midpoint of bucket b, in ns.
func histValue(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	e := uint(b>>histSubBits - 1)
	low := uint64(histSub|b&(histSub-1)) << e
	return float64(low) + float64(uint64(1)<<e)/2
}

func (h *hist) record(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile (0 < q <= 1) in ns: the value of the
// bucket holding the ceil(q*n)-th smallest sample. 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return histValue(b)
		}
	}
	return histValue(histBuckets - 1)
}
