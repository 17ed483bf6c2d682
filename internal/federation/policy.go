package federation

// Plane-selection policies. A policy orders the healthy candidate
// planes for one admission, and the view decides which of them go first:
// the router walks the planes whose published link rows would route the
// pair (fabric.Surface.Routable) in policy order, then the rest in policy
// order, failing over to the next when a plane denies the circuit, and
// when none granted asks again, in policy order, the full ones whose rows
// now route it (admitConn's second look). The
// policy axis mirrors the randomized/least-loaded spreading results for
// parallel fat-tree resources (Wang et al., PAPERS.md): static spreading
// (hash, round-robin), randomized spreading, and load-aware spreading
// on the live per-plane unavailable-channel gauge (occupied plus failed);
// the view adds the state-aware choice Rocher-Gonzalez et al. make per
// packet, made here per circuit and per plane.

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
)

// Policy selects the order in which planes are tried for an admission.
type Policy int

// The plane-selection policies.
const (
	// PolicyHash starts at the plane named by a hash of (src, dst):
	// deterministic, connection-affine spreading — among the planes that
	// can route it, the same pair always prefers the same plane.
	PolicyHash Policy = iota
	// PolicyRoundRobin rotates the starting plane per admission.
	PolicyRoundRobin
	// PolicyRandom starts at a uniformly random plane — the classic
	// randomized load-balancing baseline.
	PolicyRandom
	// PolicyLeastLoaded orders planes by live unavailable-channel count —
	// occupied plus failed or quarantined — emptiest first, read from each
	// plane's O(1) gauge (fabric.Surface.Unavailable): a plane that lost
	// capacity to faults ranks behind one that did not.
	PolicyLeastLoaded
)

// policyNames is the config grammar's name for each Policy, in constant
// order: the one place the names are spelled.
var policyNames = [...]string{"hash", "round-robin", "random", "least-loaded"}

// String names the policy in the config grammar.
func (p Policy) String() string {
	if p < 0 || int(p) >= len(policyNames) {
		return fmt.Sprintf("Policy(%d)", int(p))
	}
	return policyNames[p]
}

// Policies lists the policy names the parser accepts, in registry order.
func Policies() []string { return slices.Clone(policyNames[:]) }

// policyAliases are the short spellings ParsePolicy also accepts; an
// empty name means the default.
var policyAliases = map[string]Policy{"": PolicyHash, "rr": PolicyRoundRobin, "rand": PolicyRandom,
	"least": PolicyLeastLoaded, "ll": PolicyLeastLoaded}

// ParsePolicy resolves a policy name from the config grammar: one of
// Policies() or policyAliases.
func ParsePolicy(name string) (Policy, error) {
	if i := slices.Index(policyNames[:], name); i >= 0 {
		return Policy(i), nil
	}
	if p, ok := policyAliases[name]; ok {
		return p, nil
	}
	return 0, fmt.Errorf("federation: unknown policy %q (want %s)", name, strings.Join(policyNames[:], "|"))
}

// inlinePlanes is the plane count up to which an admission orders its
// candidates entirely on the stack; larger federations fall back to one
// heap buffer per call.
const inlinePlanes = 16

// orderPlanes reorders the candidate plane indices in place according
// to the policy. candidates index into r.planes.
func (r *Router) orderPlanes(p Policy, candidates []int, src, dst int) {
	n := len(candidates)
	if n <= 1 {
		return
	}
	switch p {
	case PolicyHash:
		rotate(candidates, pairHash(src, dst)%n)
	case PolicyRoundRobin:
		rotate(candidates, int(r.rr.Add(1)-1)%n)
	case PolicyRandom:
		rotate(candidates, rand.IntN(n))
	case PolicyLeastLoaded:
		// Snapshot each gauge once so the sort sees consistent keys, then
		// order emptiest-first, ties by plane index for determinism.
		var buf [inlinePlanes]int
		load := inlineSlots(&buf, n)
		for i, pi := range candidates {
			load[i] = int(r.planes[pi].surf.Unavailable())
		}
		sortByLoad(candidates, load)
	}
}

// inlineSlots returns n slots: the caller's on-stack array when it is
// large enough, a heap slice above inlinePlanes.
func inlineSlots(buf *[inlinePlanes]int, n int) []int {
	if n > inlinePlanes {
		return make([]int, n)
	}
	return buf[:n]
}

// sortByLoad reorders candidates by ascending load, where load[i]
// belongs to candidates[i] and moves with it. A stable insertion sort:
// ties keep their input (plane-index) order, and a handful of planes
// sort faster this way than through sort.SliceStable's reflection.
func sortByLoad(candidates, load []int) {
	for i := 1; i < len(candidates); i++ {
		c, l := candidates[i], load[i]
		j := i
		for ; j > 0 && load[j-1] > l; j-- {
			candidates[j], load[j] = candidates[j-1], load[j-1]
		}
		candidates[j], load[j] = c, l
	}
}

// rotate shifts s left by k in place, preserving ring order — the policy
// picks a starting plane, and failover walks the rest in a stable cycle.
func rotate(s []int, k int) {
	if k == 0 {
		return
	}
	slices.Reverse(s[:k])
	slices.Reverse(s[k:])
	slices.Reverse(s)
}

// pairHash mixes (src, dst) into a non-negative starting offset — FNV-1a
// over the two endpoint values.
func pairHash(src, dst int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [2]uint64{uint64(src), uint64(dst)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	return int(h % (1 << 31))
}
