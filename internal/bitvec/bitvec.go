// Package bitvec provides fixed-width bit vectors of any width, together
// with the Boolean operations the paper's P-block hardware performs on its
// Ulink/Dlink RAMs: bitwise AND and first-set-bit (the priority encoder).
//
// A Vector models the paper's w-bit Ulink/Dlink availability vectors: bit i
// set means the link attached at upper port i is available. Widths are
// arbitrary; vectors up to 64 bits occupy a single word. The schedulers do
// not use it: their link state (internal/linkstate) keeps each row as one
// machine word. It backs the FPGA RAM model of internal/hardware, and the
// benchmark's record of an AND past one word.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-width bit vector. The zero value is an empty (width-0)
// vector; use New to create one of a given width.
type Vector struct {
	width int
	words []uint64
}

// New returns a Vector of the given width with all bits clear.
// It panics if width is negative.
func New(width int) Vector {
	if width < 0 {
		panic(fmt.Sprintf("bitvec: negative width %d", width))
	}
	return Vector{width: width, words: make([]uint64, wordsFor(width))}
}

// NewFull returns a Vector of the given width with all bits set.
func NewFull(width int) Vector {
	v := New(width)
	v.SetAll()
	return v
}

func wordsFor(width int) int {
	return (width + wordBits - 1) / wordBits
}

// Width reports the number of bits in the vector.
func (v Vector) Width() int { return v.width }

func (v Vector) check(i int) {
	if i < 0 || i >= v.width {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.width))
	}
}

// Get reports whether bit i is set. It panics if i is out of range.
func (v Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Set sets bit i. It panics if i is out of range.
func (v Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i. It panics if i is out of range.
func (v Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// SetAll sets every bit in the vector.
func (v Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
}

// ClearAll clears every bit in the vector.
func (v Vector) ClearAll() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// trim zeroes the unused high bits of the last word so that whole-word
// operations (popcount, equality) remain exact.
func (v Vector) trim() {
	if v.width%wordBits != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(v.width%wordBits)) - 1
	}
}

// And stores the bitwise AND of a and b into v. All three must have the
// same width; v may alias a or b.
func (v Vector) And(a, b Vector) {
	if a.width != v.width || b.width != v.width {
		panic(fmt.Sprintf("bitvec: And width mismatch %d/%d/%d", v.width, a.width, b.width))
	}
	for i := range v.words {
		v.words[i] = a.words[i] & b.words[i]
	}
}

// AndWith ANDs other into v in place.
func (v Vector) AndWith(other Vector) { v.And(v, other) }

// FirstSet returns the index of the lowest set bit (the paper's priority
// selector) and true, or 0 and false if no bit is set.
func (v Vector) FirstSet() (int, bool) {
	for wi, w := range v.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}

// None reports whether no bit is set (the "all 0 values cannot be
// scheduled" test in the paper's pseudo-code).
func (v Vector) None() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and other have the same width and bits.
func (v Vector) Equal(other Vector) bool {
	if v.width != other.width {
		return false
	}
	for i := range v.words {
		if v.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	c := Vector{width: v.width, words: make([]uint64, len(v.words))}
	copy(c.words, v.words)
	return c
}

// CopyFrom copies the bits of other (same width) into v.
func (v Vector) CopyFrom(other Vector) {
	if v.width != other.width {
		panic(fmt.Sprintf("bitvec: CopyFrom width mismatch %d/%d", v.width, other.width))
	}
	copy(v.words, other.words)
}

// Word returns the low 64 bits of the vector; convenient for widths <= 64.
func (v Vector) Word() uint64 {
	if len(v.words) == 0 {
		return 0
	}
	return v.words[0]
}

// String renders the vector most-significant bit first, e.g. "0101" for a
// width-4 vector with bits 0 and 2 set.
func (v Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.width)
	for i := v.width - 1; i >= 0; i-- {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Matrix is a dense array of equal-width vectors, one per switch, backing a
// whole level's Ulink or Dlink state in a single allocation.
type Matrix struct {
	rows  int
	width int
	words []uint64
	wpr   int // words per row
}

// NewMatrix returns a rows x width matrix with every bit clear.
func NewMatrix(rows, width int) *Matrix {
	if rows < 0 || width < 0 {
		panic(fmt.Sprintf("bitvec: NewMatrix(%d, %d)", rows, width))
	}
	wpr := wordsFor(width)
	return &Matrix{rows: rows, width: width, words: make([]uint64, rows*wpr), wpr: wpr}
}

// Row returns row r as a Vector sharing the matrix's storage; mutations
// through the vector update the matrix.
func (m *Matrix) Row(r int) Vector {
	if r < 0 || r >= m.rows {
		panic(fmt.Sprintf("bitvec: row %d out of range [0,%d)", r, m.rows))
	}
	return Vector{width: m.width, words: m.words[r*m.wpr : (r+1)*m.wpr : (r+1)*m.wpr]}
}

// SetAll sets every bit of every row: one pass over the backing words,
// all ones except each row's last word, which takes the width's mask so
// that no bit beyond width is ever set.
func (m *Matrix) SetAll() {
	last := ^uint64(0)
	if r := m.width % wordBits; r != 0 {
		last = 1<<uint(r) - 1
	}
	n := m.wpr - 1
	for base := 0; base < len(m.words); base += m.wpr {
		row := m.words[base : base+m.wpr]
		for j := range row[:n] {
			row[j] = ^uint64(0)
		}
		row[n] = last
	}
}

// ClearAll clears every bit of every row.
func (m *Matrix) ClearAll() {
	for i := range m.words {
		m.words[i] = 0
	}
}
