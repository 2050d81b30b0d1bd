package queue

import (
	"fmt"
	"sync/atomic"

	"ulipc/internal/core"
)

// SPSC is a cache-line-padded Lamport single-producer/single-consumer
// ring with cached indices [Lamport '77; Torquati, "Single-Producer/
// Single-Consumer Queues on Shared Cache Multi-Core Systems"]. The
// producer caches the consumer index and the consumer caches the
// producer index, so in the common (non-boundary) case an operation
// touches only the caller's own cache line: zero cross-core loads, zero
// CAS, zero per-slot sequence atomics. That makes it strictly cheaper
// than the MPMC Ring wherever the topology permits it.
//
// Contract: exactly ONE goroutine may call Enqueue and exactly ONE
// goroutine may call Dequeue. The two may differ, and ownership may be
// handed to another goroutine if the handoff is itself synchronized
// (e.g. livebind's connection-slot reuse hands the consumer side over
// under a mutex). Violating the contract corrupts the ring silently —
// which is why the generic constructor New rejects KindSPSC and callers
// must use NewSPSC directly, asserting the topology at the call site.
// Empty and Len are safe from any goroutine.
//
// The live runtime uses it for per-client reply channels, where the
// topology is SPSC by construction: one server (or one duplex handler)
// produces replies, one client consumes them.
type SPSC struct {
	mask  uint64
	slots []core.Msg

	_ [64]byte // keep the consumer line off the read-only header

	// Consumer-owned cache line: only Dequeue writes these.
	head       atomic.Uint64 // next index to dequeue
	cachedTail uint64        // consumer's last-seen copy of tail
	_          [48]byte

	// Producer-owned cache line: only Enqueue writes these.
	tail       atomic.Uint64 // next index to enqueue
	cachedHead uint64        // producer's last-seen copy of head
	_          [48]byte
}

// NewSPSC builds an SPSC ring holding at least capacity messages
// (rounded up to the next power of two, like NewRing). The caller
// asserts the single-producer/single-consumer contract documented on
// SPSC.
func NewSPSC(capacity int) (*SPSC, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("queue: capacity must be >= 1, got %d", capacity)
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &SPSC{mask: uint64(n - 1), slots: make([]core.Msg, n)}, nil
}

// Cap implements Queue. Like Ring, the effective capacity is the
// requested one rounded up to a power of two.
func (q *SPSC) Cap() int { return len(q.slots) }

// Enqueue implements Queue. Producer side only.
func (q *SPSC) Enqueue(m core.Msg) bool {
	t := q.tail.Load()
	if t-q.cachedHead == uint64(len(q.slots)) {
		// Ring looks full against the cached consumer position; refresh
		// the cache with one cross-core load and re-check.
		q.cachedHead = q.head.Load()
		if t-q.cachedHead == uint64(len(q.slots)) {
			return false
		}
	}
	q.slots[t&q.mask] = m
	q.tail.Store(t + 1) // release: publishes the slot write
	return true
}

// Dequeue implements Queue. Consumer side only.
func (q *SPSC) Dequeue() (core.Msg, bool) {
	h := q.head.Load()
	if h == q.cachedTail {
		q.cachedTail = q.tail.Load()
		if h == q.cachedTail {
			return core.Msg{}, false
		}
	}
	m := q.slots[h&q.mask]
	q.head.Store(h + 1) // release: returns the slot to the producer
	return m, true
}

// EnqueueN appends the longest prefix of ms that fits and returns its
// length. Producer side only. The whole burst costs what one Enqueue
// does: one load of the own index, at most one refresh of the cached
// consumer index, and one publishing store — Torquati's "touch the
// shared index once per burst, not once per slot".
func (q *SPSC) EnqueueN(ms []core.Msg) int {
	t := q.tail.Load()
	size := uint64(len(q.slots))
	if size-(t-q.cachedHead) < uint64(len(ms)) {
		q.cachedHead = q.head.Load()
	}
	n := min(uint64(len(ms)), size-(t-q.cachedHead))
	if n == 0 {
		return 0
	}
	i := t & q.mask
	k := uint64(copy(q.slots[i:], ms[:n]))
	copy(q.slots, ms[k:n]) // the part that wraps past the end
	q.tail.Store(t + n)    // release: publishes every slot write above
	return int(n)
}

// DequeueN removes up to len(dst) messages into dst, FIFO, and returns
// how many. Consumer side only; the mirror of EnqueueN — one load of
// the own index, at most one refresh of the cached producer index, one
// store returning every slot to the producer.
func (q *SPSC) DequeueN(dst []core.Msg) int {
	h := q.head.Load()
	if q.cachedTail-h < uint64(len(dst)) {
		q.cachedTail = q.tail.Load()
	}
	n := min(uint64(len(dst)), q.cachedTail-h)
	if n == 0 {
		return 0
	}
	i := h & q.mask
	k := uint64(copy(dst[:n], q.slots[i:]))
	copy(dst[k:n], q.slots)
	q.head.Store(h + n) // release: returns the slots to the producer
	return int(n)
}

// Empty implements Queue. Unlike Enqueue/Dequeue it is safe from any
// goroutine (it reads only the atomic indices and mutates no cache), so
// the BSLS spin loop can poll it freely.
func (q *SPSC) Empty() bool {
	return q.head.Load() == q.tail.Load()
}

// Len returns the number of queued messages, clamped to [0, Cap()]
// (the two indices are loaded independently, so a racing snapshot can
// be momentarily inconsistent).
func (q *SPSC) Len() int {
	t, h := q.tail.Load(), q.head.Load()
	if t < h {
		return 0
	}
	n := t - h
	if n > uint64(len(q.slots)) {
		return len(q.slots)
	}
	return int(n)
}
