// Package digits implements the mixed-radix switch labeling used throughout
// the fat-tree reproduction.
//
// A level-h switch of FT(l, m, w) is labeled by l-1 digits, position 0
// least significant. Positions h..l-2 hold child digits in [0, m) and
// positions 0..h-1 hold port digits in [0, w). For the symmetric case
// m == w this is exactly the paper's base-w label τ = t_{l-2}…t_0.
//
// Theorem 1 of the paper is the Up operation: taking upward port p from a
// level-h switch drops the child digit at position h, shifts the port
// digits up one position, and writes p at position 0:
//
//	τ_{h+1} = Σ_{i≥h+1} t_i·w^i + Σ_{i=1..h} t_{i-1}·w^i + P_h.
package digits

import "fmt"

// Spec carries the radix parameters of a fat tree FT(l, m, w): l switch
// levels, m children and w parents per switch.
type Spec struct {
	L int // number of switch levels (>= 1)
	M int // children per switch (>= 1)
	W int // parents per switch (>= 1); top-level switches have none
}

// Validate reports an error if the spec parameters are out of range.
func (s Spec) Validate() error {
	if s.L < 1 {
		return fmt.Errorf("digits: levels L = %d, need >= 1", s.L)
	}
	if s.M < 1 {
		return fmt.Errorf("digits: children M = %d, need >= 1", s.M)
	}
	if s.W < 1 {
		return fmt.Errorf("digits: parents W = %d, need >= 1", s.W)
	}
	return nil
}

// Symmetric reports whether m == w (the FT(l, w) case the paper proves
// its theorems for).
func (s Spec) Symmetric() bool { return s.M == s.W }

// Nodes returns the number of processing nodes, m^l.
func (s Spec) Nodes() int { return ipow(s.M, s.L) }

// SwitchesAt returns the number of switches at the given level:
// m^(l-1-level) * w^level.
func (s Spec) SwitchesAt(level int) int {
	s.checkLevel(level)
	return ipow(s.M, s.L-1-level) * ipow(s.W, level)
}

// TotalSwitches returns the switch count summed over all levels.
func (s Spec) TotalSwitches() int {
	total := 0
	for h := 0; h < s.L; h++ {
		total += s.SwitchesAt(h)
	}
	return total
}

// LinkLevels returns the number of link levels (levels that have upward
// links), l-1. Link level h joins switch levels h and h+1.
func (s Spec) LinkLevels() int { return s.L - 1 }

func (s Spec) checkLevel(level int) {
	if level < 0 || level >= s.L {
		panic(fmt.Sprintf("digits: level %d out of range [0,%d)", level, s.L))
	}
}

// Radix returns the radix of digit position pos for a label at the given
// level: M for child-digit positions (pos >= level), W for port-digit
// positions.
func (s Spec) Radix(level, pos int) int {
	if pos >= level {
		return s.M
	}
	return s.W
}

// Label is a switch label: a digit slice of length L-1, position 0 least
// significant. Interpretation of each position depends on the switch level
// (see package comment).
type Label []int

// Clone returns an independent copy of the label.
func (d Label) Clone() Label {
	c := make(Label, len(d))
	copy(c, d)
	return c
}

// Equal reports whether two labels have identical digits.
func (d Label) Equal(other Label) bool {
	if len(d) != len(other) {
		return false
	}
	for i := range d {
		if d[i] != other[i] {
			return false
		}
	}
	return true
}

// String renders the label most-significant digit first, e.g. "1.1.3".
func (d Label) String() string {
	if len(d) == 0 {
		return "·"
	}
	out := ""
	for i := len(d) - 1; i >= 0; i-- {
		if out != "" {
			out += "."
		}
		out += fmt.Sprint(d[i])
	}
	return out
}

// Index packs a level-h label into a dense index in
// [0, SwitchesAt(level)), folding digits most-significant first with the
// mixed radix given by Spec.Radix. For m == w this equals the paper's
// integer τ.
func (s Spec) Index(level int, d Label) int {
	s.checkLabelShape(level, d)
	idx := 0
	for pos := s.L - 2; pos >= 0; pos-- {
		idx = idx*s.Radix(level, pos) + d[pos]
	}
	return idx
}

// LabelOf unpacks a dense index into a level-h label (inverse of Index).
func (s Spec) LabelOf(level, idx int) Label {
	return s.LabelInto(make(Label, s.L-1), level, idx)
}

// LabelInto is LabelOf writing into d, which must have length L-1, for
// loops that unpack many indices and keep none of the labels.
func (s Spec) LabelInto(d Label, level, idx int) Label {
	s.checkLevel(level)
	n := s.SwitchesAt(level)
	if idx < 0 || idx >= n {
		panic(fmt.Sprintf("digits: index %d out of range [0,%d) at level %d", idx, n, level))
	}
	if len(d) != s.L-1 {
		panic(fmt.Sprintf("digits: label length %d, want %d", len(d), s.L-1))
	}
	for pos := range d {
		r := s.Radix(level, pos)
		d[pos] = idx % r
		idx /= r
	}
	return d
}

func (s Spec) checkLabelShape(level int, d Label) {
	s.checkLevel(level)
	if len(d) != s.L-1 {
		panic(fmt.Sprintf("digits: label length %d, want %d", len(d), s.L-1))
	}
	for pos, v := range d {
		if r := s.Radix(level, pos); v < 0 || v >= r {
			panic(fmt.Sprintf("digits: digit %d at position %d out of range [0,%d)", v, pos, r))
		}
	}
}

// Up applies Theorem 1: it returns the label of the level-(level+1) switch
// reached by taking upward port p from the level-h switch labeled d. The
// child digit at position level is dropped, port digits shift up, and p is
// written at position 0. d is not modified.
func (s Spec) Up(level int, d Label, p int) Label {
	s.checkLabelShape(level, d)
	if level >= s.L-1 {
		panic(fmt.Sprintf("digits: Up from top level %d", level))
	}
	if p < 0 || p >= s.W {
		panic(fmt.Sprintf("digits: port %d out of range [0,%d)", p, s.W))
	}
	out := make(Label, s.L-1)
	copy(out[level+1:], d[level+1:]) // child digits above the dropped one
	copy(out[1:level+1], d[:level])  // port digits shift up
	out[0] = p
	return out
}

// UpInPlace is Up writing into d itself and returning the dropped child
// digit (the parent's downward port back to d's original switch).
func (s Spec) UpInPlace(level int, d Label, p int) (droppedChild int) {
	s.checkLabelShape(level, d)
	if level >= s.L-1 {
		panic(fmt.Sprintf("digits: UpInPlace from top level %d", level))
	}
	if p < 0 || p >= s.W {
		panic(fmt.Sprintf("digits: port %d out of range [0,%d)", p, s.W))
	}
	droppedChild = d[level]
	copy(d[1:level+1], d[:level])
	d[0] = p
	return droppedChild
}

// Down inverts Up: from a level-(level+1) switch labeled d, descending via
// child port c yields the level-h child switch label. The port digit at
// position 0 is removed (it names the child's upward port back to d),
// remaining port digits shift down, and c becomes the child digit at
// position level.
func (s Spec) Down(level int, d Label, c int) (child Label, childUpPort int) {
	s.checkLabelShape(level+1, d)
	if level < 0 || level >= s.L-1 {
		panic(fmt.Sprintf("digits: Down to level %d out of range", level))
	}
	if c < 0 || c >= s.M {
		panic(fmt.Sprintf("digits: child %d out of range [0,%d)", c, s.M))
	}
	out := make(Label, s.L-1)
	copy(out[level+1:], d[level+1:])
	copy(out[:level], d[1:level+1])
	out[level] = c
	return out, d[0]
}

// NodeSwitch returns the label of the level-0 switch that node n attaches
// to, and the child port it occupies. Nodes are numbered 0..m^l-1.
func (s Spec) NodeSwitch(n int) (Label, int) {
	if n < 0 || n >= s.Nodes() {
		panic(fmt.Sprintf("digits: node %d out of range [0,%d)", n, s.Nodes()))
	}
	port := n % s.M
	idx := n / s.M
	return s.LabelOf(0, idx), port
}

// AncestorLevel returns the level of the lowest common ancestor switch of
// two level-0 switch labels: 0 if they are the same switch, otherwise
// 1 + the highest position at which their child digits differ. The result
// is at most L-1 (the top level).
func (s Spec) AncestorLevel(src, dst Label) int {
	s.checkLabelShape(0, src)
	s.checkLabelShape(0, dst)
	for pos := s.L - 2; pos >= 0; pos-- {
		if src[pos] != dst[pos] {
			return pos + 1
		}
	}
	return 0
}

// NodeAncestorLevel returns AncestorLevel for the level-0 switches of two
// nodes. It unpacks the two dense switch indices digit by digit instead of
// materializing Labels, keeping schedulers' per-request hot path
// allocation-free.
func (s Spec) NodeAncestorLevel(a, b int) int {
	if a < 0 || a >= s.Nodes() || b < 0 || b >= s.Nodes() {
		panic(fmt.Sprintf("digits: nodes (%d,%d) out of range [0,%d)", a, b, s.Nodes()))
	}
	ia, ib := a/s.M, b/s.M
	level := 0
	for pos := 0; pos <= s.L-2; pos++ {
		r := s.Radix(0, pos)
		if ia%r != ib%r {
			level = pos + 1
		}
		ia /= r
		ib /= r
	}
	return level
}

func ipow(base, exp int) int {
	r := 1
	for i := 0; i < exp; i++ {
		r *= base
	}
	return r
}

// Pow returns base**exp for small non-negative integer exponents.
func Pow(base, exp int) int { return ipow(base, exp) }
