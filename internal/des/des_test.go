package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueReady(t *testing.T) {
	var k Kernel
	if k.Now() != 0 || k.Pending() != 0 || k.Processed() != 0 {
		t.Fatal("zero kernel not clean")
	}
	if k.Step() {
		t.Fatal("Step on empty kernel returned true")
	}
}

func TestEventOrderByTime(t *testing.T) {
	var k Kernel
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	if n := k.Run(); n != 3 {
		t.Fatalf("Run executed %d", n)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if k.Now() != 30 {
		t.Fatalf("Now = %d", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	var k Kernel
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	var k Kernel
	var at Time
	k.At(10, func() {
		k.After(5, func() { at = k.Now() })
	})
	k.Run()
	if at != 15 {
		t.Fatalf("After landed at %d", at)
	}
}

func TestPastPanics(t *testing.T) {
	var k Kernel
	k.At(10, func() {})
	k.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.At(5, func() {})
}

func TestRunUntil(t *testing.T) {
	var k Kernel
	var got []Time
	for _, tt := range []Time{1, 5, 9, 15} {
		tt := tt
		k.At(tt, func() { got = append(got, tt) })
	}
	k.RunUntil(9)
	if len(got) != 3 || k.Pending() != 1 || k.Now() != 9 {
		t.Fatalf("got %v pending %d now %d", got, k.Pending(), k.Now())
	}
	k.RunUntil(20)
	if len(got) != 4 || k.Now() != 20 {
		t.Fatalf("after second run: %v now %d", got, k.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	var k Kernel
	k.RunUntil(100)
	if k.Now() != 100 {
		t.Fatalf("Now = %d", k.Now())
	}
}

func TestCascade(t *testing.T) {
	// Events scheduling events: a chain of N hops lands at time N.
	var k Kernel
	const n = 1000
	count := 0
	var hop func()
	hop = func() {
		count++
		if count < n {
			k.After(1, hop)
		}
	}
	k.At(1, hop)
	k.Run()
	if count != n || k.Now() != n {
		t.Fatalf("count %d now %d", count, k.Now())
	}
	if k.Processed() != n {
		t.Fatalf("Processed = %d", k.Processed())
	}
}

// Property: events fire in nondecreasing time order regardless of
// insertion order.
func TestQuickMonotonicTime(t *testing.T) {
	f := func(raw []uint16) bool {
		var k Kernel
		var fired []Time
		for _, r := range raw {
			tt := Time(r)
			k.At(tt, func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: all scheduled events execute exactly once.
func TestQuickConservation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)
		var k Kernel
		count := 0
		for i := 0; i < n; i++ {
			k.At(Time(rng.Intn(50)), func() { count++ })
		}
		k.Run()
		return count == n && k.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSchedule(b *testing.B) {
	var k Kernel
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.At(Time(i), fn)
		k.Step()
	}
}

func TestNext(t *testing.T) {
	var k Kernel
	if _, ok := k.Next(); ok {
		t.Fatal("Next on an empty kernel reported an event")
	}
	k.At(20, func() {})
	k.At(10, func() {})
	if at, ok := k.Next(); !ok || at != 10 {
		t.Fatalf("Next = %d, %v; want 10, true", at, ok)
	}
	k.Step()
	if at, ok := k.Next(); !ok || at != 20 || k.Now() != 10 {
		t.Fatalf("after one step: Next = %d, %v at %d; want 20, true at 10", at, ok, k.Now())
	}
}
