package clock

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// The wall clock's timer is *time.Timer, so Reset and Stop mean what the
// standard library says they mean.
var _ Timer = (*time.Timer)(nil)

// TestFakeFiresInDueThenArmOrder: timers fire in due order, and timers due
// at one instant in the order they were last armed.
func TestFakeFiresInDueThenArmOrder(t *testing.T) {
	c := NewFake()
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }
	c.AfterFunc(2*time.Millisecond, note("b1"))
	c.AfterFunc(time.Millisecond, note("a"))
	b2 := c.AfterFunc(time.Millisecond, note("b2"))
	c.AfterFunc(2*time.Millisecond, note("b3"))
	b2.Reset(2 * time.Millisecond) // re-armed after b1 and b3: fires after them
	c.Advance(2 * time.Millisecond)
	if want := []string{"a", "b1", "b3", "b2"}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestFakeFiresAtDueInstant: nothing fires a nanosecond early, and Now reads
// a callback's due time while it runs and the advanced time after.
func TestFakeFiresAtDueInstant(t *testing.T) {
	c := NewFake()
	start := c.Now()
	var at time.Time
	c.AfterFunc(50*time.Millisecond, func() { at = c.Now() })
	c.Advance(50*time.Millisecond - 1)
	if !at.IsZero() {
		t.Fatal("the timer fired 1 ns before its due time")
	}
	c.Advance(time.Second)
	if got := at.Sub(start); got != 50*time.Millisecond {
		t.Fatalf("the callback read Now %v after the start, want 50ms", got)
	}
	if got := c.Now().Sub(start); got != time.Second+50*time.Millisecond-1 {
		t.Fatalf("the clock ended %v after the start", got)
	}
}

// TestFakeStopResetReportPending: Stop and Reset report whether the timer
// was pending, as *time.Timer's do, and a stopped timer never fires.
func TestFakeStopResetReportPending(t *testing.T) {
	c := NewFake()
	fired := 0
	tm := c.AfterFunc(time.Millisecond, func() { fired++ })
	if !tm.Stop() {
		t.Fatal("Stop of a pending timer reported false")
	}
	if tm.Stop() {
		t.Fatal("Stop of a stopped timer reported true")
	}
	c.Advance(time.Second)
	if fired != 0 {
		t.Fatal("a stopped timer fired")
	}
	if tm.Reset(time.Millisecond) {
		t.Fatal("Reset of a stopped timer reported true")
	}
	if !tm.Reset(time.Millisecond) {
		t.Fatal("Reset of a pending timer reported false")
	}
	c.Advance(time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if tm.Stop() || tm.Reset(time.Millisecond) {
		t.Fatal("a fired timer reported itself pending")
	}
}

// TestFakeResetMovesDueTime: a Reset replaces the old due time; the old one
// fires nothing, earlier or later.
func TestFakeResetMovesDueTime(t *testing.T) {
	c := NewFake()
	fired := 0
	tm := c.AfterFunc(10*time.Millisecond, func() { fired++ })
	tm.Reset(30 * time.Millisecond)
	c.Advance(29 * time.Millisecond)
	if fired != 0 {
		t.Fatal("the timer fired at the due time Reset replaced")
	}
	c.Advance(time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired %d times by its new due time, want 1", fired)
	}
	tm.Reset(5 * time.Millisecond)
	tm.Reset(time.Hour)
	c.Advance(10 * time.Millisecond)
	if fired != 1 {
		t.Fatal("the timer fired at a due time a second Reset replaced")
	}
}

// TestFakeCallbackArmsInsideWindow: a callback that arms a timer due inside
// the window being advanced sees it fire in the same Advance, a zero delay
// at the callback's own instant; and callbacks may call back into the
// clock, which they could not if it held its lock around them.
func TestFakeCallbackArmsInsideWindow(t *testing.T) {
	c := NewFake()
	start := c.Now()
	var at []time.Duration
	var self Timer
	n := 0
	self = c.AfterFunc(time.Millisecond, func() {
		at = append(at, c.Now().Sub(start))
		if n++; n < 3 {
			self.Reset(time.Millisecond) // self-re-arming, as a ticker is
		}
	})
	c.AfterFunc(2*time.Millisecond, func() {
		c.AfterFunc(0, func() { at = append(at, -c.Now().Sub(start)) })
	})
	c.Advance(10 * time.Millisecond)
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, -2 * time.Millisecond, 3 * time.Millisecond}
	if !slices.Equal(at, want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
}

// TestFakePendingCountsLiveTimers: Pending counts the timers armed and
// neither fired nor stopped — a Reset of a pending timer is still one — and
// a goroutine blocked on a timer is handed over by it: once Pending shows the
// timer armed, one Advance releases the goroutine at the timer's due time.
func TestFakePendingCountsLiveTimers(t *testing.T) {
	c := NewFake()
	a := c.AfterFunc(time.Millisecond, func() {})
	b := c.AfterFunc(2*time.Millisecond, func() {})
	b.Reset(3 * time.Millisecond)
	if got := c.Pending(); got != 2 {
		t.Fatalf("Pending = %d with two armed timers, want 2", got)
	}
	a.Stop()
	a.Stop()
	if got := c.Pending(); got != 1 {
		t.Fatalf("Pending = %d after a Stop, want 1", got)
	}
	c.Advance(3 * time.Millisecond)
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending = %d after the last timer fired, want 0", got)
	}
	a.Reset(time.Millisecond)
	if got := c.Pending(); got != 1 {
		t.Fatalf("Pending = %d after re-arming a stopped timer, want 1", got)
	}
	c.Advance(time.Millisecond)

	start := c.Now()
	woke := make(chan time.Duration)
	go func() {
		done := make(chan struct{})
		c.AfterFunc(5*time.Millisecond, func() { close(done) })
		<-done
		woke <- c.Now().Sub(start)
	}()
	for c.Pending() == 0 {
		runtime.Gosched()
	}
	c.Advance(5 * time.Millisecond)
	if at := <-woke; at != 5*time.Millisecond {
		t.Fatalf("the blocked goroutine woke %v after the start, want 5ms", at)
	}
}
