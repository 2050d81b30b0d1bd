package queue

import (
	"sync/atomic"

	"ulipc/internal/core"
)

// Ring is a bounded multi-producer multi-consumer ring buffer with
// per-slot sequence numbers (Vyukov's MPMC queue), the live runtime's
// default shared receive queue. It needs no node pool and no locks, but
// its capacity is fixed at a power of two. A claimed but unpublished
// slot hides later slots from consumers until it is published; the
// protocols tolerate this because each producer wakes the consumer only
// after its own publish (DESIGN.md §6).
type Ring struct {
	mask  uint64
	slots []ringSlot

	// The enqueue and dequeue cursors are the two hottest words in the
	// structure and are hammered by disjoint parties (producers vs
	// consumers); padding keeps each on its own 64-byte cache line so a
	// producer CAS does not invalidate every consumer's cached cursor
	// (and vice versa).
	_   [64]byte
	enq atomic.Uint64
	_   [56]byte
	deq atomic.Uint64
	_   [56]byte
}

type ringSlot struct {
	seq atomic.Uint64
	msg core.Msg
}

// NewRing builds a ring holding at least capacity messages. The
// capacity is rounded UP to the next power of two, and to at least two
// slots: with one slot, "published at pos" and "free for pos+1" would be
// the same sequence value, so a second Enqueue would overwrite an
// unconsumed message. Cap() reports the effective value, which may
// exceed the request (flow-control experiments that need an exact bound
// must request a power of two of at least 2).
func NewRing(capacity int) (*Ring, error) {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &Ring{mask: uint64(n - 1), slots: make([]ringSlot, n)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r, nil
}

// Cap implements Queue.
func (r *Ring) Cap() int { return len(r.slots) }

// Enqueue implements Queue.
func (r *Ring) Enqueue(m core.Msg) bool {
	for {
		pos := r.enq.Load()
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				slot.msg = m
				slot.seq.Store(pos + 1)
				return true
			}
		case seq < pos:
			return false // slot still owned by a lagging consumer: full
		}
		// seq > pos: another producer claimed this slot; retry.
	}
}

// Dequeue implements Queue.
func (r *Ring) Dequeue() (core.Msg, bool) {
	for {
		pos := r.deq.Load()
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos+1:
			if r.deq.CompareAndSwap(pos, pos+1) {
				m := slot.msg
				slot.seq.Store(pos + uint64(len(r.slots)))
				return m, true
			}
		case seq <= pos:
			return core.Msg{}, false // empty
		}
		// seq > pos+1: another consumer claimed this slot; retry.
	}
}

// Empty implements Queue. It is a non-destructive racy poll: it reads
// the dequeue cursor and that slot's sequence without synchronising
// against concurrent operations, so the answer may be stale by the time
// the caller acts on it (exactly the guarantee the BSLS spin loop
// needs, no stronger).
func (r *Ring) Empty() bool {
	pos := r.deq.Load()
	return r.slots[pos&r.mask].seq.Load() <= pos
}

// Len returns the approximate number of queued messages, clamped to
// [0, Cap()]. The two cursors are loaded independently, so a snapshot
// taken during concurrent operations can be transiently inconsistent
// (e.g. a dequeue between the two loads could otherwise make the
// difference exceed the capacity); the clamp keeps the result inside
// the queue's invariant range.
func (r *Ring) Len() int {
	e, d := r.enq.Load(), r.deq.Load()
	if e < d {
		return 0
	}
	n := e - d
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}
