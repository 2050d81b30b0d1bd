package queue

import (
	"fmt"
	"sync/atomic"

	"ulipc/internal/core"
)

// Lanes is a fan-in view over a set of per-producer SPSC rings that
// share one logical consumer: each producer owns exactly one lane (so
// every ring keeps its single-producer contract), and the consumer
// scans the lanes round-robin. This is the Torquati-style composition
// — SPSC rings as the building block, fan-in done by the consumer —
// that lets a server shard own one wait-free lane per client of its
// partition instead of one contended MPMC queue.
//
// Lanes implements Queue so it can sit behind a livebind Channel and
// inherit the existing shutdown-drain and recovery machinery, with one
// deliberate exception: Enqueue always reports full. Producers must
// enqueue through their own ring via Lane(i); the fan-in view cannot
// know which lane a caller owns, and accepting messages on an
// arbitrary lane would break the SPSC contract the whole construction
// exists to preserve.
//
// The consumer side is guarded by a per-lane try-lock so that a
// shutdown or recovery drainer running while the owner is still live
// can dequeue without racing the owner on the ring's consumer-local
// state (head + cached tail). The lock is an atomic CAS: release(Store)
// → acquire(CAS) orders the consumer-local writes between alternating
// dequeuers. Producers never touch the locks.
type Lanes struct {
	lanes []*SPSC
	locks []laneLock
	next  atomic.Uint32 // round-robin cursor (shared with drainers)
}

// laneLock is a padded consumer try-lock, one per lane, each on its
// own cache line so a drainer on one lane's lock does not false-share
// with the owner scanning its neighbours.
type laneLock struct {
	held atomic.Bool
	_    [63]byte
}

// NewLanes builds the fan-in view. The lane slice is captured, not
// copied: index i must be the lane owned by producer i for the
// lifetime of the view.
func NewLanes(lanes []*SPSC) (*Lanes, error) {
	if len(lanes) == 0 {
		return nil, fmt.Errorf("queue: Lanes needs at least one lane")
	}
	for i, ln := range lanes {
		if ln == nil {
			return nil, fmt.Errorf("queue: Lanes lane %d is nil", i)
		}
	}
	return &Lanes{lanes: lanes, locks: make([]laneLock, len(lanes))}, nil
}

// Lane returns producer i's ring. The producer enqueues here directly
// — wait-free, no fan-in coordination.
func (l *Lanes) Lane(i int) *SPSC { return l.lanes[i] }

// NumLanes returns the number of lanes.
func (l *Lanes) NumLanes() int { return len(l.lanes) }

// Enqueue always reports full: producers must use Lane(i).Enqueue to
// keep each ring single-producer. Present only to satisfy Queue.
func (l *Lanes) Enqueue(core.Msg) bool { return false }

// Dequeue removes one message: DequeueN with room for one.
func (l *Lanes) Dequeue() (core.Msg, bool) {
	var b [1]core.Msg
	if l.DequeueN(b[:]) == 0 {
		return core.Msg{}, false
	}
	return b[0], true
}

// DequeueN fills dst from the lanes in round-robin order, starting just
// past the last lane served, and returns how many messages it stored.
// Each non-empty lane costs one try-lock and one SPSC.DequeueN, and the
// cursor moves once, past the last lane served, so round-robin holds
// per burst: a lane left non-empty because dst filled up is the first
// one the next burst visits, and no lane starves. Lanes that look empty
// are skipped without touching their lock; a lane whose lock is held is
// also skipped. Only a drainer contends with the owner, and it runs only
// on a shutdown whose drain deadline expired (the channel closes next)
// or on a dead owner's lanes, so no wake is owed for what a skip leaves
// behind. The scan wraps the lane index with a compare, not a divide,
// and the cursor is stored only when it moves.
func (l *Lanes) DequeueN(dst []core.Msg) int {
	n := uint32(len(l.lanes))
	start := l.next.Load()
	got, next := 0, start
	for k, i := uint32(0), start; k < n && got < len(dst); k++ {
		if ln := l.lanes[i]; !ln.Empty() && l.locks[i].held.CompareAndSwap(false, true) {
			m := ln.DequeueN(dst[got:])
			l.locks[i].held.Store(false)
			if m > 0 {
				got += m
				next = i + 1
			}
		}
		if i++; i == n {
			i = 0
		}
	}
	if next == n {
		next = 0
	}
	if next != start {
		l.next.Store(next)
	}
	return got
}

// Empty reports whether every lane appears empty.
func (l *Lanes) Empty() bool {
	for _, ln := range l.lanes {
		if !ln.Empty() {
			return false
		}
	}
	return true
}

// Len returns the total queued messages across lanes (racy, like the
// underlying SPSC.Len; a shard's admission-control depth).
func (l *Lanes) Len() int {
	n := 0
	for _, ln := range l.lanes {
		n += ln.Len()
	}
	return n
}

// Cap returns the summed lane capacity.
func (l *Lanes) Cap() int {
	n := 0
	for _, ln := range l.lanes {
		n += ln.Cap()
	}
	return n
}
