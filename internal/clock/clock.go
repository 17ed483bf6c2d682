// Package clock is the serving layer's one source of time. The fabric
// manager, the federation router and ftserve's flaky stepper read the time
// and arm their timers only through a Clock: the wall clock in service, and
// in tests a Fake that stands still until the test advances it, so a test
// that needs 254 ms of repair backoff or a 50 ms probe interval takes none
// of either and every timer fires at the instant its due time names.
package clock

import (
	"sync"
	"time"

	"repro/internal/des"
)

// Timer is an armed callback: *time.Timer satisfies it. Stop and Reset
// report whether the timer was pending, as *time.Timer's do.
type Timer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// Clock reads the time and arms callbacks. AfterFunc runs f once, d from
// now, unless the Timer is stopped first.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) Timer
}

// Wall is the real clock: time.Now and time.AfterFunc.
var Wall Clock = wall{}

type wall struct{}

func (wall) Now() time.Time                            { return time.Now() }
func (wall) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Or returns c, or Wall when c is nil: how a config's optional clock
// takes its default.
func Or(c Clock) Clock {
	if c == nil {
		return Wall
	}
	return c
}

// Fake is a clock that moves only when Advance moves it. Its timers are
// events on a des.Kernel counted in nanoseconds, so timers due at the same
// instant fire in the order they were armed (a Reset re-arms). Advance runs
// each callback on its caller's goroutine with the fake's lock released, so
// a callback may read the time and arm, reset or stop timers; one it arms
// inside the window being advanced fires in the same Advance. The zero
// value is not usable; make one with NewFake. It is safe for concurrent
// use.
type Fake struct {
	mu    sync.Mutex
	k     des.Kernel
	start time.Time
	fire  func() // the callback the event just stepped handed over
	live  int    // timers armed and neither fired nor stopped
}

// NewFake returns a fake clock standing at a fixed instant.
func NewFake() *Fake { return &Fake{start: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)} }

// Now returns the fake's current time.
func (c *Fake) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.start.Add(time.Duration(c.k.Now()))
}

// AfterFunc arms f to run d from now (now itself when d ≤ 0).
func (c *Fake) AfterFunc(d time.Duration, f func()) Timer {
	t := &fakeTimer{c: c, f: f}
	c.mu.Lock()
	t.armLocked(d)
	c.mu.Unlock()
	return t
}

// Pending returns how many timers are armed: neither fired nor stopped. A
// driver whose client goroutine blocks on a timer of this clock reads it to
// know, without sleeping, that the timer is armed and Advance will fire it.
func (c *Fake) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// Advance moves the clock forward by d, firing every timer due on the way
// in due order, each at its own instant: Now reads a callback's due time
// while it runs, and the clock ends at the old time plus d.
func (c *Fake) Advance(d time.Duration) {
	c.mu.Lock()
	until := c.k.Now() + des.Time(max(d, 0))
	for {
		if at, ok := c.k.Next(); !ok || at > until {
			c.k.RunUntil(until)
			c.mu.Unlock()
			return
		}
		c.k.Step() // a live timer's event hands its callback over in fire
		f := c.fire
		c.fire = nil
		if f != nil {
			c.mu.Unlock()
			f()
			c.mu.Lock()
		}
	}
}

// fakeTimer is one of a Fake's timers. Every arm, Reset and Stop bumps gen,
// so an event armed before the latest one finds itself stale and does
// nothing.
type fakeTimer struct {
	c       *Fake
	f       func()
	gen     uint64
	pending bool
}

// armLocked schedules the timer d from now. Caller holds c.mu.
func (t *fakeTimer) armLocked(d time.Duration) {
	t.gen++
	if !t.pending {
		t.c.live++
	}
	t.pending = true
	gen := t.gen
	t.c.k.After(des.Time(max(d, 0)), func() {
		if t.gen == gen {
			t.pending = false
			t.c.live--
			t.c.fire = t.f
		}
	})
}

// Reset re-arms the timer d from now, reporting whether it was pending.
func (t *fakeTimer) Reset(d time.Duration) bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := t.pending
	t.armLocked(d)
	return was
}

// Stop disarms the timer, reporting whether it was pending.
func (t *fakeTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := t.pending
	t.gen++
	if was {
		t.c.live--
	}
	t.pending = false
	return was
}
