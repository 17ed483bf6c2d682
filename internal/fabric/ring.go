package fabric

// The release ring keeps Release off the manager mutex entirely: an owner
// parks its handle with one CAS and the next epoch retires it before it
// schedules, so the freed channels are visible to that very pass.

import "sync/atomic"

// releaseRing is a bounded multi-producer single-consumer queue of
// released handles. Producers (the Release fast path) claim a slot with
// one CAS on tail and publish the handle pointer into it; the single
// consumer — whoever holds m.mu, inside drainReleasesLocked — takes, in
// one pass, everything up to the tail it read or to the first slot a
// producer has claimed but not yet published (that slot is simply picked
// up by a later drain). A full ring fails the push and the caller falls
// back to the synchronous release path, so the ring never blocks and
// never drops a handle.
type releaseRing struct {
	mask uint64
	head atomic.Uint64 // consumer cursor; advanced only under the consumer lock
	tail atomic.Uint64 // producer cursor
	slot []atomic.Pointer[Handle]
}

// newReleaseRing rounds the capacity up to a power of two so the slot
// index is a mask, not a modulo.
func newReleaseRing(capacity int) *releaseRing {
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &releaseRing{mask: uint64(size - 1), slot: make([]atomic.Pointer[Handle], size)}
}

// push claims a slot and publishes h, reporting false when the ring is
// full. The claimed slot is always clean: head only advances past slots
// the consumer has already nilled, and the full check keeps tail within
// one lap of head.
func (r *releaseRing) push(h *Handle) bool {
	for {
		tail := r.tail.Load()
		if tail-r.head.Load() > r.mask {
			return false
		}
		if r.tail.CompareAndSwap(tail, tail+1) {
			r.slot[tail&r.mask].Store(h)
			return true
		}
	}
}

// drain appends every published handle to buf, oldest first, and returns
// it: tail is read once, each slot is emptied with one swap, and head is
// stored once for the whole pass, so what a drain costs the lock it runs
// under is one atomic per handle plus two. It stops early at a slot whose
// producer has claimed it but not yet published — swapping nil into an
// empty slot changes nothing, and the next drain starts there. Single
// consumer: callers hold m.mu.
func (r *releaseRing) drain(buf []*Handle) []*Handle {
	head, tail := r.head.Load(), r.tail.Load()
	if head == tail {
		return buf
	}
	for ; head != tail; head++ {
		h := r.slot[head&r.mask].Swap(nil)
		if h == nil {
			break // producer mid-publish; the next drain gets it
		}
		buf = append(buf, h)
	}
	r.head.Store(head)
	return buf
}
