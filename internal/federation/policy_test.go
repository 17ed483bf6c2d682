package federation

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fabric"
)

// The ordering oracle: candidate assembly and plane ordering as they
// were written before the admit path moved onto the stack — fresh slices
// per call, sort.SliceStable — kept as the reference the in-place
// versions must match order for order.

func oracleRotate(s []int, k int) {
	if k == 0 {
		return
	}
	tmp := make([]int, 0, len(s))
	tmp = append(tmp, s[k:]...)
	tmp = append(tmp, s[:k]...)
	copy(s, tmp)
}

func oracleOrderByLoad(candidates []int, load []int64) {
	n := len(candidates)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return load[idx[a]] < load[idx[b]] })
	out := make([]int, n)
	for i, j := range idx {
		out[i] = candidates[j]
	}
	copy(candidates, out)
}

// oracleOrderPlanes orders candidates the reference way. rr is the
// round-robin counter value this admission draws; PolicyRandom is not
// ordered here (its start is a fresh random draw) and the caller checks
// the ring property instead.
func oracleOrderPlanes(r *Router, p Policy, candidates []int, src, dst int, rr uint64) {
	n := len(candidates)
	if n <= 1 {
		return
	}
	switch p {
	case PolicyHash:
		oracleRotate(candidates, pairHash(src, dst)%n)
	case PolicyRoundRobin:
		oracleRotate(candidates, int(rr)%n)
	case PolicyLeastLoaded:
		occ := make([]int64, n)
		for i, pi := range candidates {
			occ[i] = r.planes[pi].surf.Unavailable()
		}
		oracleOrderByLoad(candidates, occ)
	}
}

// Plane states the property test deals out.
const (
	stHealthy  = iota
	stEjected  // breaker open, probe not due
	stProbeDue // breaker open, probe interval elapsed
)

// oracleCandidates assembles the try-order the reference way: healthy
// planes in policy order, then the due probes in index order; every
// plane when none is healthy and none is due.
func oracleCandidates(r *Router, states []int, src, dst int, rr uint64) (order []int, healthy int) {
	var probes []int
	for i, st := range states {
		switch st {
		case stHealthy:
			order = append(order, i)
		case stProbeDue:
			probes = append(probes, i)
		}
	}
	if len(order) == 0 && len(probes) == 0 {
		for i := range states {
			order = append(order, i)
		}
	}
	healthy = len(order)
	oracleOrderPlanes(r, r.cfg.Policy, order, src, dst, rr)
	return append(order, probes...), healthy
}

// occSurface is a plane whose unavailable-channel gauge the test sets;
// ordering calls nothing else on a plane.
type occSurface struct {
	fabric.Surface
	occ int64
}

func (s *occSurface) Unavailable() int64 { return s.occ }

// TestOrderingMatchesOracle is the ordering-equivalence property: for
// every policy, 1 to 20 planes (across the inlinePlanes heap fallback),
// random occupancies with ties, and random ejected subsets with and
// without due probes, candidates() returns exactly the order the
// reference implementation does.
func TestOrderingMatchesOracle(t *testing.T) {
	policies := []Policy{PolicyHash, PolicyRoundRobin, PolicyRandom, PolicyLeastLoaded}
	g := lcg(1)
	for _, policy := range policies {
		for n := 1; n <= 20; n++ {
			// The subtest names keep their weighted=false segment: test
			// lists compare names, so a rename would read as a removal.
			t.Run(fmt.Sprintf("%s/weighted=false/planes=%d", policy, n), func(t *testing.T) {
				r := &Router{cfg: Config{Policy: policy, Clock: clock.Wall}}
				for i := 0; i < n; i++ {
					r.planes = append(r.planes, &plane{surf: &occSurface{}})
				}
				states := make([]int, n)
				for trial := 0; trial < 50; trial++ {
					// A third of the trials leave every plane healthy, the
					// case the benchmark workloads run.
					allHealthy := trial%3 == 0
					for i, p := range r.planes {
						// A few distinct occupancies, so ties are common.
						p.surf.(*occSurface).occ = int64(g.next(4))
						states[i] = stHealthy
						if !allHealthy {
							states[i] = g.next(3)
						}
					}
					src, dst := g.next(64), g.next(64)
					rr := uint64(g.next(1000))
					want, healthy := oracleCandidates(r, states, src, dst, rr)

					now := time.Now()
					for i, p := range r.planes {
						switch states[i] {
						case stHealthy:
							p.breaker.Store(bClosed)
						case stEjected:
							p.breaker.Store(bOpen)
							p.lastProbe.Store(now.Add(time.Hour).UnixNano())
						case stProbeDue:
							p.breaker.Store(bOpen)
							p.lastProbe.Store(0)
						}
					}
					r.rr.Store(rr)
					var buf [inlinePlanes]int
					got := r.candidates(&buf, src, dst)

					if policy == PolicyRandom {
						// The start is a fresh draw: the healthy prefix must be
						// some rotation of the reference's, the probes identical.
						if len(got) != len(want) || !slices.Equal(got[healthy:], want[healthy:]) ||
							!isRotation(got[:healthy], want[:healthy]) {
							t.Fatalf("states %v: got %v, want a rotation of %v then %v",
								states, got, want[:healthy], want[healthy:])
						}
						continue
					}
					if !slices.Equal(got, want) {
						t.Fatalf("states %v occupancy %v (%d→%d, rr %d): got %v, want %v",
							states, occupancies(r), src, dst, rr, got, want)
					}
				}
			})
		}
	}
}

func occupancies(r *Router) []int64 {
	occ := make([]int64, len(r.planes))
	for i, p := range r.planes {
		occ[i] = p.surf.Unavailable()
	}
	return occ
}

// isRotation reports whether got is want shifted left by some k.
func isRotation(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	if len(want) == 0 {
		return true
	}
	for k := range want {
		shifted := slices.Clone(want)
		oracleRotate(shifted, k)
		if slices.Equal(got, shifted) {
			return true
		}
	}
	return false
}

// TestRotateMatchesOracle: the in-place three-reversal is the copying
// rotate for every length and shift.
func TestRotateMatchesOracle(t *testing.T) {
	for n := 1; n <= 20; n++ {
		for k := 0; k < n; k++ {
			got, want := make([]int, n), make([]int, n)
			for i := range got {
				got[i], want[i] = i, i
			}
			rotate(got, k)
			oracleRotate(want, k)
			if !slices.Equal(got, want) {
				t.Fatalf("rotate(%d planes, %d) = %v, want %v", n, k, got, want)
			}
		}
	}
}
