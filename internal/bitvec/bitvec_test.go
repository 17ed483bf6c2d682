package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroWidth(t *testing.T) {
	v := New(0)
	if v.Width() != 0 {
		t.Fatalf("Width() = %d, want 0", v.Width())
	}
	if !v.None() {
		t.Fatal("zero-width vector should report None")
	}
	if _, ok := v.FirstSet(); ok {
		t.Fatal("zero-width vector should have no first set bit")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	for _, width := range []int{1, 3, 7, 8, 63, 64, 65, 127, 128, 200} {
		v := New(width)
		for i := 0; i < width; i++ {
			if v.Get(i) {
				t.Fatalf("width %d: bit %d set in fresh vector", width, i)
			}
		}
		for i := 0; i < width; i += 3 {
			v.Set(i)
		}
		for i := 0; i < width; i++ {
			want := i%3 == 0
			if v.Get(i) != want {
				t.Fatalf("width %d: Get(%d) = %v, want %v", width, i, v.Get(i), want)
			}
		}
		for i := 0; i < width; i += 3 {
			v.Clear(i)
		}
		if !v.None() {
			t.Fatalf("width %d: vector not empty after clearing", width)
		}
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	v := New(8)
	for _, i := range []int{-1, 8, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}

func TestSetAllAndCount(t *testing.T) {
	for _, width := range []int{1, 5, 64, 65, 130} {
		v := NewFull(width)
		if got := v.Count(); got != width {
			t.Fatalf("width %d: Count after SetAll = %d", width, got)
		}
		// High bits beyond width must not leak into Count.
		v.ClearAll()
		if got := v.Count(); got != 0 {
			t.Fatalf("width %d: Count after ClearAll = %d", width, got)
		}
	}
}

func TestAnd(t *testing.T) {
	a := New(70)
	b := New(70)
	a.Set(0)
	a.Set(3)
	a.Set(65)
	b.Set(3)
	b.Set(64)
	b.Set(65)
	out := New(70)
	out.And(a, b)
	want := []int{3, 65}
	if out.Count() != len(want) {
		t.Fatalf("And count = %d, want %d", out.Count(), len(want))
	}
	for _, i := range want {
		if !out.Get(i) {
			t.Fatalf("And missing bit %d", i)
		}
	}
}

func TestAndWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched widths did not panic")
		}
	}()
	New(4).And(New(4), New(5))
}

func TestAndNot(t *testing.T) {
	a := New(70)
	b := New(70)
	a.Set(1)
	a.Set(65)
	a.Set(69)
	b.Set(65)
	out := New(70)
	out.AndNot(a, b)
	if out.Count() != 2 || !out.Get(1) || !out.Get(69) || out.Get(65) {
		t.Fatalf("AndNot = %s", out)
	}
	// Aliasing form.
	a.AndNot(a, b)
	if !a.Equal(out) {
		t.Fatal("aliased AndNot differs")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AndNot width mismatch did not panic")
		}
	}()
	New(4).AndNot(New(4), New(5))
}

func TestAndAliasing(t *testing.T) {
	a := New(10)
	a.Set(1)
	a.Set(2)
	b := New(10)
	b.Set(2)
	b.Set(3)
	a.AndWith(b)
	if a.Count() != 1 || !a.Get(2) {
		t.Fatalf("AndWith aliasing wrong: %s", a)
	}
}

func TestFirstSet(t *testing.T) {
	v := New(130)
	if _, ok := v.FirstSet(); ok {
		t.Fatal("FirstSet on empty vector returned ok")
	}
	v.Set(129)
	if i, ok := v.FirstSet(); !ok || i != 129 {
		t.Fatalf("FirstSet = %d,%v want 129,true", i, ok)
	}
	v.Set(64)
	if i, _ := v.FirstSet(); i != 64 {
		t.Fatalf("FirstSet = %d want 64", i)
	}
	v.Set(0)
	if i, _ := v.FirstSet(); i != 0 {
		t.Fatalf("FirstSet = %d want 0", i)
	}
}

func TestNthSet(t *testing.T) {
	v := New(200)
	set := []int{2, 5, 63, 64, 100, 199}
	for _, i := range set {
		v.Set(i)
	}
	for n, want := range set {
		got, ok := v.NthSet(n)
		if !ok || got != want {
			t.Fatalf("NthSet(%d) = %d,%v want %d,true", n, got, ok, want)
		}
	}
	if _, ok := v.NthSet(len(set)); ok {
		t.Fatal("NthSet past end returned ok")
	}
	if _, ok := v.NthSet(-1); ok {
		t.Fatal("NthSet(-1) returned ok")
	}
}

func TestCloneIndependence(t *testing.T) {
	v := New(16)
	v.Set(4)
	c := v.Clone()
	c.Set(5)
	if v.Get(5) {
		t.Fatal("Clone shares storage with original")
	}
	if !c.Get(4) {
		t.Fatal("Clone lost original bit")
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(16)
	a.Set(1)
	b := New(16)
	b.Set(9)
	a.CopyFrom(b)
	if !a.Equal(b) {
		t.Fatalf("CopyFrom mismatch: %s vs %s", a, b)
	}
}

func TestEqual(t *testing.T) {
	a := New(8)
	b := New(9)
	if a.Equal(b) {
		t.Fatal("vectors of different width compare equal")
	}
	c := New(8)
	a.Set(3)
	if a.Equal(c) {
		t.Fatal("differing vectors compare equal")
	}
	c.Set(3)
	if !a.Equal(c) {
		t.Fatal("identical vectors compare unequal")
	}
}

func TestString(t *testing.T) {
	v := New(4)
	v.Set(0)
	v.Set(2)
	if got := v.String(); got != "0101" {
		t.Fatalf("String = %q want 0101", got)
	}
}

func TestWord(t *testing.T) {
	v := New(8)
	v.Set(0)
	v.Set(7)
	if v.Word() != 0x81 {
		t.Fatalf("Word = %#x want 0x81", v.Word())
	}
	if New(0).Word() != 0 {
		t.Fatal("Word on empty vector != 0")
	}
}

// Property: FirstSet equals the minimum of the set indices.
func TestQuickFirstSetIsMin(t *testing.T) {
	f := func(raw []uint16) bool {
		v := New(300)
		min := -1
		for _, r := range raw {
			i := int(r) % 300
			v.Set(i)
			if min == -1 || i < min {
				min = i
			}
		}
		got, ok := v.FirstSet()
		if min == -1 {
			return !ok
		}
		return ok && got == min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Count equals the number of distinct indices set.
func TestQuickCountDistinct(t *testing.T) {
	f := func(raw []uint16) bool {
		v := New(257)
		distinct := map[int]bool{}
		for _, r := range raw {
			i := int(r) % 257
			v.Set(i)
			distinct[i] = true
		}
		return v.Count() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: And(a,b).Get(i) == a.Get(i) && b.Get(i) for all i.
func TestQuickAndSemantics(t *testing.T) {
	f := func(x, y []bool) bool {
		const width = 96
		a, b := New(width), New(width)
		for i := 0; i < width && i < len(x); i++ {
			if x[i] {
				a.Set(i)
			}
		}
		for i := 0; i < width && i < len(y); i++ {
			if y[i] {
				b.Set(i)
			}
		}
		out := New(width)
		out.And(a, b)
		for i := 0; i < width; i++ {
			if out.Get(i) != (a.Get(i) && b.Get(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(5, 70)
	if m.Rows() != 5 || m.Width() != 70 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Width())
	}
	m.Row(2).Set(69)
	if !m.Row(2).Get(69) {
		t.Fatal("row mutation lost")
	}
	if m.Row(1).Get(69) || m.Row(3).Get(69) {
		t.Fatal("row mutation leaked into neighbors")
	}
	if m.Count() != 1 {
		t.Fatalf("Count = %d want 1", m.Count())
	}
	m.SetAll()
	if m.Count() != 5*70 {
		t.Fatalf("Count after SetAll = %d want %d", m.Count(), 5*70)
	}
	m.ClearAll()
	if m.Count() != 0 {
		t.Fatalf("Count after ClearAll = %d", m.Count())
	}
}

// TestMatrixSetAllStaysInWidth: SetAll fills the backing words directly,
// so each row's last word must carry the width's mask — every bit below
// width set, none beyond it, in every row, also over stale contents.
func TestMatrixSetAllStaysInWidth(t *testing.T) {
	for _, width := range []int{0, 1, 63, 64, 65, 128, 130} {
		m := NewMatrix(3, width)
		for i := range m.Words() {
			m.Words()[i] = 0xA5A5A5A5A5A5A5A5 // stale bits, some beyond width
		}
		m.SetAll()
		full := NewFull(width) // Equal compares whole words, bits beyond width included
		for r := 0; r < m.Rows(); r++ {
			if !m.Row(r).Equal(full) {
				t.Fatalf("width %d row %d: SetAll left %s", width, r, m.Row(r))
			}
		}
		if m.Count() != 3*width {
			t.Fatalf("width %d: Count after SetAll = %d want %d", width, m.Count(), 3*width)
		}
	}
}

func TestMatrixRowOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2, 4)
	for _, r := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Row(%d) did not panic", r)
				}
			}()
			m.Row(r)
		}()
	}
}

func TestMatrixSnapshotRestore(t *testing.T) {
	m := NewMatrix(4, 33)
	m.SetAll()
	snap := m.Snapshot()
	m.Row(0).Clear(0)
	m.Row(3).Clear(32)
	if m.Count() == 4*33 {
		t.Fatal("mutations had no effect")
	}
	m.Restore(snap)
	if m.Count() != 4*33 {
		t.Fatalf("Restore did not recover state: count %d", m.Count())
	}
	// Snapshot must be a copy, not an alias.
	m.Row(1).Clear(5)
	m.Restore(snap)
	if !m.Row(1).Get(5) {
		t.Fatal("snapshot aliases live storage")
	}
}

func TestMatrixRestoreWrongShapePanics(t *testing.T) {
	m := NewMatrix(2, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("Restore with wrong length did not panic")
		}
	}()
	m.Restore(make([]uint64, 1))
}

func TestMatrixEqual(t *testing.T) {
	a := NewMatrix(2, 8)
	b := NewMatrix(2, 8)
	if !a.Equal(b) {
		t.Fatal("fresh equal matrices compare unequal")
	}
	a.Row(1).Set(3)
	if a.Equal(b) {
		t.Fatal("differing matrices compare equal")
	}
	c := NewMatrix(3, 8)
	if a.Equal(c) {
		t.Fatal("different shapes compare equal")
	}
}

// Property: a randomized sequence of row Set/Clear operations keeps matrix
// Count equal to a reference map implementation.
func TestQuickMatrixReference(t *testing.T) {
	f := func(ops []uint32) bool {
		const rows, width = 7, 37
		m := NewMatrix(rows, width)
		ref := map[[2]int]bool{}
		for _, op := range ops {
			r := int(op>>16) % rows
			i := int(op>>1) % width
			if op&1 == 0 {
				m.Row(r).Set(i)
				ref[[2]int{r, i}] = true
			} else {
				m.Row(r).Clear(i)
				delete(ref, [2]int{r, i})
			}
		}
		return m.Count() == len(ref)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAndFirstSet64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	u := New(64)
	d := New(64)
	for i := 0; i < 64; i++ {
		if rng.Intn(2) == 0 {
			u.Set(i)
		}
		if rng.Intn(2) == 0 {
			d.Set(i)
		}
	}
	out := New(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.And(u, d)
		out.FirstSet()
	}
}
