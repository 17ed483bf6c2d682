package digits

import (
	"fmt"
	"math/bits"
)

// Kernel is the precomputed query engine for one Spec: stride tables and
// power-of-two shift/mask forms of the per-request arithmetic every
// scheduler pays — node→switch splitting, lowest-common-ancestor level,
// and the Theorem 1 Up rule on dense indices. A Kernel is immutable and
// all methods are allocation-free, so they are safe on the
// zero-allocation scheduling hot path.
//
// Two deliberate redundancies make the kernel testable: UpParentArith is
// the closed-form Up rule (the oracle the table-driven topology adjacency
// is pinned against), and the general-radix NodeAncestorLevel path is
// cross-checked against the XOR fast path by the package tests.
type Kernel struct {
	spec  Spec
	nodes int

	// Stride tables: mPow[k] = M^k for k in [0, L-1] and wPow[k] = W^k
	// for k in [0, L-1]; level-h switch indices factor as
	// childDigits·W^h + portDigits.
	mPow []int
	wPow []int

	// Power-of-two fast-path parameters (the paper's FT(l, 2^k) evaluation
	// case): division and modulus by M or W become shifts and masks.
	mPow2, wPow2   bool
	mShift, wShift uint
	mMask, wMask   int

	// lcaByLen[b] is the ancestor level of two level-0 switches whose
	// index XOR has bit length b; built only when M is a power of two.
	lcaByLen []int8
}

// NewKernel validates the spec and precomputes its tables.
func NewKernel(spec Spec) (*Kernel, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	k := &Kernel{
		spec:  spec,
		nodes: spec.Nodes(),
		mPow:  make([]int, spec.L),
		wPow:  make([]int, spec.L),
	}
	k.mPow[0], k.wPow[0] = 1, 1
	for i := 1; i < spec.L; i++ {
		k.mPow[i] = k.mPow[i-1] * spec.M
		k.wPow[i] = k.wPow[i-1] * spec.W
	}
	if spec.M&(spec.M-1) == 0 {
		k.mPow2 = true
		k.mShift = uint(bits.TrailingZeros(uint(spec.M)))
		k.mMask = spec.M - 1
		if k.mShift == 0 { // M == 1: a single node, XOR is always 0
			k.lcaByLen = []int8{0}
		} else {
			k.lcaByLen = make([]int8, k.mShift*uint(spec.L-1)+1)
			for b := 1; b < len(k.lcaByLen); b++ {
				k.lcaByLen[b] = int8((uint(b) + k.mShift - 1) / k.mShift)
			}
		}
	}
	if spec.W&(spec.W-1) == 0 {
		k.wPow2 = true
		k.wShift = uint(bits.TrailingZeros(uint(spec.W)))
		k.wMask = spec.W - 1
	}
	return k, nil
}

// MustKernel is NewKernel that panics on error.
func MustKernel(spec Spec) *Kernel {
	k, err := NewKernel(spec)
	if err != nil {
		panic(err)
	}
	return k
}

// Spec returns the radix parameters the kernel was built for.
func (k *Kernel) Spec() Spec { return k.spec }

// Nodes returns the cached node count m^l.
func (k *Kernel) Nodes() int { return k.nodes }

// WPow2 reports whether W is a power of two (the shift/mask fast path).
func (k *Kernel) WPow2() bool { return k.wPow2 }

// WShift returns log2(W); meaningful only when WPow2 is true.
func (k *Kernel) WShift() uint { return k.wShift }

// LCAParams exposes the power-of-two M fast-path parameters so callers
// on the scheduling hot path (topology.Tree) can mirror them into their
// own cache line: mPow2, log2(M), M-1, and the XOR bit-length →
// ancestor-level table (nil unless M is a power of two). The table is
// shared, not copied; treat it as read-only.
func (k *Kernel) LCAParams() (mPow2 bool, mShift uint, mMask int, lcaByLen []int8) {
	if !k.mPow2 {
		return false, 0, 0, nil
	}
	return true, k.mShift, k.mMask, k.lcaByLen
}

// NodeSwitch returns the dense level-0 switch index of node n and the
// child port it occupies.
func (k *Kernel) NodeSwitch(n int) (switchIdx, port int) {
	if uint(n) >= uint(k.nodes) {
		panic(fmt.Sprintf("digits: node %d out of range [0,%d)", n, k.nodes))
	}
	return k.SplitNode(n)
}

// SplitNode is NodeSwitch without the range check, for callers that
// already validated n.
func (k *Kernel) SplitNode(n int) (switchIdx, port int) {
	if k.mPow2 {
		return n >> k.mShift, n & k.mMask
	}
	return n / k.spec.M, n % k.spec.M
}

// NodeAncestorLevel returns the lowest-common-ancestor level of the
// level-0 switches of two nodes, matching Spec.NodeAncestorLevel
// digit-for-digit. With power-of-two M the highest differing child digit
// falls out of one XOR and a bit-length lookup; otherwise a top-down
// stride-quotient compare stops at the first divergence, so the common
// all-digits-differ case of random traffic exits after one division.
func (k *Kernel) NodeAncestorLevel(a, b int) int {
	if uint(a) >= uint(k.nodes) || uint(b) >= uint(k.nodes) {
		panic(fmt.Sprintf("digits: nodes (%d,%d) out of range [0,%d)", a, b, k.nodes))
	}
	if k.mPow2 {
		return int(k.lcaByLen[bits.Len(uint((a>>k.mShift)^(b>>k.mShift)))])
	}
	ia, ib := a/k.spec.M, b/k.spec.M
	for pos := k.spec.L - 2; pos >= 0; pos-- {
		if ia/k.mPow[pos] != ib/k.mPow[pos] {
			return pos + 1
		}
	}
	return 0
}

// Subtrees returns the number of disjoint level-`level` subtrees,
// M^(L-1-level): the count of distinct values SubtreeAt can return.
// Level L-1 has a single subtree (the whole fabric); level 0 has one
// subtree per leaf switch.
func (k *Kernel) Subtrees(level int) int {
	if level < 0 || level >= k.spec.L {
		panic(fmt.Sprintf("digits: subtree level %d out of range [0,%d)", level, k.spec.L))
	}
	return k.mPow[k.spec.L-1-level]
}

// SubtreeAt returns the index of the level-`level` subtree containing
// node n. Two nodes share a level-ℓ subtree exactly when their LCA
// level is at most ℓ, so a request whose NodeAncestorLevel is ≤ ℓ
// touches Ulink/Dlink rows only inside SubtreeAt(src, ℓ)'s row set —
// the disjointness fact the subtree-sharded parallel scheduler
// (internal/parsched Shard mode) builds on. With power-of-two M the
// division collapses to one shift.
func (k *Kernel) SubtreeAt(n, level int) int {
	if uint(n) >= uint(k.nodes) {
		panic(fmt.Sprintf("digits: node %d out of range [0,%d)", n, k.nodes))
	}
	if level < 0 || level >= k.spec.L {
		panic(fmt.Sprintf("digits: subtree level %d out of range [0,%d)", level, k.spec.L))
	}
	if k.mPow2 {
		return n >> (k.mShift * uint(level+1))
	}
	// n/M is the leaf switch; dropping its low `level` child digits
	// leaves the subtree index. (n/M)/M^level == n/M^(level+1).
	return n / k.spec.M / k.mPow[level]
}

// UpParentArith applies Theorem 1 directly on dense switch indices: the
// level-h index factors as C·W^h + P with C the packed child digits and
// P the packed port digits, so dropping the child digit at position h,
// shifting the port digits, and writing p is
//
//	parent = (C div M)·W^(h+1) + P·W + p.
//
// For m == w this reduces to the paper's OhringParent integer rule; for
// m != w it is the mixed-radix generalization. It is the arithmetic
// oracle the flattened adjacency tables are pinned against (see
// topology.Tree.WithArithmeticCursor).
func (k *Kernel) UpParentArith(h, idx, p int) int {
	wh := k.wPow[h]
	return idx/(wh*k.spec.M)*k.wPow[h+1] + idx%wh*k.spec.W + p
}
