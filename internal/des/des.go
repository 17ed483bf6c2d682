// Package des is a minimal deterministic discrete-event simulation kernel:
// an event queue ordered by (time, insertion sequence) with a monotonic
// clock. It replaces the SystemC runtime the paper used for its system
// simulation (see DESIGN.md §5) — SystemC contributes event scheduling and
// a clock, which is exactly what this kernel provides.
package des

import "container/heap"

// Time is the simulated clock in abstract cycles.
type Time uint64

// Kernel is a discrete-event simulator. The zero value is ready to use.
// It is not safe for concurrent use.
type Kernel struct {
	pq   eventQueue
	now  Time
	seq  uint64
	runs uint64
}

type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return k.pq.Len() }

// Next reports the time of the earliest queued event, false when none is
// queued.
func (k *Kernel) Next() (Time, bool) {
	if k.pq.Len() == 0 {
		return 0, false
	}
	return k.pq[0].at, true
}

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.runs }

// At schedules fn at absolute time t. Scheduling in the past panics —
// time travel indicates a logic error in the model. Events at the same
// time run in scheduling order (deterministic).
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic("des: event scheduled in the past")
	}
	heap.Push(&k.pq, event{at: t, seq: k.seq, fn: fn})
	k.seq++
}

// After schedules fn d cycles from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// Step executes the earliest event, advancing the clock to it. It reports
// whether an event was executed.
func (k *Kernel) Step() bool {
	if k.pq.Len() == 0 {
		return false
	}
	e := heap.Pop(&k.pq).(event)
	k.now = e.at
	k.runs++
	e.fn()
	return true
}

// Run executes events until the queue drains, returning the number of
// events executed by this call.
func (k *Kernel) Run() uint64 {
	start := k.runs
	for k.Step() {
	}
	return k.runs - start
}

// RunUntil executes events with time <= deadline, leaving later events
// queued, and advances the clock to the deadline if it ran dry earlier.
func (k *Kernel) RunUntil(deadline Time) {
	for k.pq.Len() > 0 && k.pq[0].at <= deadline {
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}
