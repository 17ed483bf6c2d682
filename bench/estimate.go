package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The estimator. The hosts this runs on are shared: neighbours steal the
// CPU in bursts of seconds, whole-window medians of the same code differed
// by ±17 % between runs, and process CPU time tracked wall time, so the
// interference is not accounted steal and CPU-time metrics do not remove
// it. What repeats is the undisturbed part of a run. A measured window is
// therefore cut into 1 s slices, every timing metric is computed per
// slice, and the reported value is the best-decile slice: the 10th
// percentile for times, the 90th for rates. Interference only ever slows a
// slice, and a decile (not the extreme) ignores a lone glitch.

const sliceDur = time.Second

// sliceAcc is what one slice of a window saw.
type sliceAcc struct {
	ops     uint64 // operations that completed with a verdict
	rels    uint64 // Release operations issued beside them (counted, not timed)
	reqs    uint64 // requests those operations carried (1 per Connect, 4096 per batch)
	granted uint64 // requests granted
	failed  uint64 // operations that errored; they carry no latency
	lat     hist   // latency of the operations with a verdict
}

func (a *sliceAcc) merge(o *sliceAcc) {
	a.ops += o.ops
	a.rels += o.rels
	a.reqs += o.reqs
	a.granted += o.granted
	a.failed += o.failed
	a.lat.merge(&o.lat)
}

// window is one measured stretch: n slices, filled round by round (the
// clients quiesce between rounds for the invariant checks, so each round
// restarts the clock), plus a trailing overflow slice for operations that
// complete after a round's deadline (counted, never timed).
type window struct {
	mu     sync.Mutex
	slices []sliceAcc
	// The current round covers slices [off, lim), from start to end.
	start, end time.Time
	off, lim   int
}

func newWindow(n int) *window { return &window{slices: make([]sliceAcc, n+1)} }

func (w *window) n() int { return len(w.slices) - 1 }

// beginRound starts the clock of a round covering the next n slices.
func (w *window) beginRound(n int) {
	w.off = w.lim
	w.lim = min(w.off+n, w.n())
	w.start = time.Now()
	w.end = w.start.Add(time.Duration(w.lim-w.off) * sliceDur)
}

// beginShort starts a round of one slice cut short at d, for the layer
// replays and the smoke run, which only want the round's totals.
func (w *window) beginShort(d time.Duration) {
	w.beginRound(1)
	w.end = w.start.Add(min(d, sliceDur))
}

func (w *window) deadline() time.Time { return w.end }

// sliceOf maps a completion time to its slice index (overflow past the
// round's end).
func (w *window) sliceOf(t time.Time) int {
	i := w.off + int(t.Sub(w.start)/sliceDur)
	if i >= w.lim || !t.Before(w.end) {
		return w.n()
	}
	return max(i, w.off)
}

// recorder is one client goroutine's private view of a window: it
// accumulates the current slice locally and folds it into the window once
// per slice, so clients share nothing on the request path.
type recorder struct {
	w   *window
	idx int
	cur sliceAcc
}

func (r *recorder) attach(w *window) {
	r.w, r.idx = w, w.off
	r.cur = sliceAcc{}
}

// op records one completed operation and returns the slice it fell in.
func (r *recorder) op(end time.Time, lat time.Duration, reqs, granted uint64) int {
	r.roll(end)
	r.cur.ops++
	r.cur.reqs += reqs
	r.cur.granted += granted
	r.cur.lat.record(int64(lat))
	return r.idx
}

// released counts one Release; its failure, if any, is a fail of its own.
func (r *recorder) released() { r.cur.rels++ }

// fail records one errored operation.
func (r *recorder) fail(end time.Time) {
	r.roll(end)
	r.cur.failed++
}

func (r *recorder) roll(end time.Time) {
	if i := r.w.sliceOf(end); i != r.idx {
		r.flush()
		r.idx = i
	}
}

func (r *recorder) flush() {
	r.w.mu.Lock()
	r.w.slices[r.idx].merge(&r.cur)
	r.w.mu.Unlock()
	r.cur = sliceAcc{}
}

// bestDecile returns the best-decile element of vals by nearest rank:
// the ceil(n/10)-th smallest when lower is better, the ceil(n/10)-th
// largest when higher is better (third-best of 30, second-best of 20).
func bestDecile(vals []float64, higherBetter bool) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	k := int(math.Ceil(float64(len(s))/10)) - 1
	if higherBetter {
		return s[len(s)-1-k]
	}
	return s[k]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// estimate is what a set of slices reduces to.
type estimate struct {
	reqPerS, p50us, tailus           float64 // best-decile slice
	reqPerSMed, p50usMed, tailusMed  float64 // median slice, for information
	ops, rels, reqs, granted, failed uint64  // whole window, overflow included
	minSliceOps                      uint64  // fewest operations in a slice: p99 needs >= 1000
	slices                           int
}

// reduce applies the estimator to the slices keep selects (nil keeps all);
// tail is the quantile reported as the tail latency. Whole-window counts
// always cover every slice.
func (w *window) reduce(keep func(i int) bool, tail float64) estimate {
	var e estimate
	var rates, p50s, tails []float64
	e.minSliceOps = math.MaxUint64
	for i := range w.slices {
		s := &w.slices[i]
		e.ops += s.ops
		e.rels += s.rels
		e.reqs += s.reqs
		e.granted += s.granted
		e.failed += s.failed
		if i == w.n() || (keep != nil && !keep(i)) || s.ops == 0 {
			continue
		}
		rates = append(rates, float64(s.reqs)/sliceDur.Seconds())
		p50s = append(p50s, s.lat.quantile(0.50)/1e3)
		tails = append(tails, s.lat.quantile(tail)/1e3)
		e.minSliceOps = min(e.minSliceOps, s.ops)
	}
	e.slices = len(rates)
	if e.slices == 0 {
		e.minSliceOps = 0
	}
	e.reqPerS, e.reqPerSMed = bestDecile(rates, true), median(rates)
	e.p50us, e.p50usMed = bestDecile(p50s, false), median(p50s)
	e.tailus, e.tailusMed = bestDecile(tails, false), median(tails)
	return e
}
