// Package queue implements the concurrent FIFO queues the live runtime
// layers the IPC protocols over:
//
//   - Ring — a bounded MPMC ring buffer with per-slot sequence numbers,
//     the live runtime's default shared receive queue (KindRing is the
//     zero Kind).
//   - TwoLock — the Michael & Scott two-lock queue the paper's evaluation
//     uses ("the evaluation software uses a common implementation of the
//     Michael and Scott two-lock queue"). It stays selectable for the
//     paper's figures (ablation A2) and for the chaos cells, which need
//     its robust locks and node pool.
//   - LockFree — the Michael & Scott non-blocking queue (ablation A2).
//   - SPSC — a cache-line-padded Lamport single-producer/single-consumer
//     ring with cached indices, the live runtime's fast path for
//     per-client reply channels. Unlike the other kinds it is NOT safe
//     for arbitrary concurrency, so the generic constructor New rejects
//     KindSPSC; build one with NewSPSC where the topology is provably
//     SPSC.
//
// All variants are flow-controlled: Enqueue reports false when the queue
// is full (for the list-based queues, when the fixed-size node pool is
// exhausted), which is the condition the protocols' queue-full sleep
// reacts to.
package queue

import (
	"fmt"

	"ulipc/internal/core"
)

// Queue is a concurrent, flow-controlled FIFO of fixed-size messages.
type Queue interface {
	// Enqueue appends m, reporting false if the queue is full.
	Enqueue(m core.Msg) bool
	// Dequeue removes the head message, reporting false if empty.
	Dequeue() (core.Msg, bool)
	// Empty reports whether the queue appears empty (a non-destructive
	// poll; may race with concurrent operations).
	Empty() bool
	// Cap returns the maximum number of queued messages.
	Cap() int
	// Len returns the number of queued messages (a racy snapshot under
	// concurrent operations).
	Len() int
}

// Kind selects a queue implementation. The zero Kind is KindRing, so a
// zero Options or LiveConfig gets the ring.
type Kind int

const (
	KindRing Kind = iota
	KindTwoLock
	KindLockFree
	KindSPSC
)

func (k Kind) String() string {
	switch k {
	case KindTwoLock:
		return "two-lock"
	case KindLockFree:
		return "lock-free"
	case KindRing:
		return "ring"
	case KindSPSC:
		return "spsc"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindByName parses a queue kind name; "" is the default, KindRing.
func KindByName(s string) (Kind, error) {
	switch s {
	case "ring", "mpmc", "":
		return KindRing, nil
	case "two-lock", "twolock", "2lock":
		return KindTwoLock, nil
	case "lock-free", "lockfree", "msq":
		return KindLockFree, nil
	case "spsc", "lamport":
		return KindSPSC, nil
	}
	return 0, fmt.Errorf("queue: unknown kind %q", s)
}

// Kinds returns the general-purpose (MPMC-safe) implementations in
// presentation order. KindSPSC is deliberately excluded: it is only
// valid where the topology is provably single-producer/single-consumer,
// which generic sweeps over Kinds() cannot guarantee.
func Kinds() []Kind { return []Kind{KindTwoLock, KindLockFree, KindRing} }

// New builds a queue of the given kind with the given capacity.
//
// KindSPSC is rejected here by design: this constructor cannot assert
// the single-producer/single-consumer contract, so callers that can
// must use NewSPSC directly (livebind does this for reply channels).
func New(kind Kind, capacity int) (Queue, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("queue: capacity must be >= 1, got %d", capacity)
	}
	switch kind {
	case KindTwoLock:
		return NewTwoLock(capacity)
	case KindLockFree:
		return NewLockFree(capacity)
	case KindRing:
		return NewRing(capacity)
	case KindSPSC:
		return nil, fmt.Errorf("queue: KindSPSC requires a provably single-producer/single-consumer topology; use NewSPSC at a call site that asserts it")
	}
	return nil, fmt.Errorf("queue: unknown kind %d", kind)
}

// Drain removes and discards every message currently in the queue,
// returning how many were dropped. It is the teardown counterpart of
// the flow-controlled Enqueue: a system shutting down calls it on
// queues whose consumers are gone, so undelivered messages are counted
// rather than silently stranded. Like the underlying Dequeue it is safe
// under concurrency, but the count is exact only once producers have
// stopped.
func Drain(q Queue) int {
	n := 0
	for {
		if _, ok := q.Dequeue(); !ok {
			return n
		}
		n++
	}
}

// DrainFunc is Drain with a per-message callback, for teardown paths
// that must account for resources the discarded messages reference —
// e.g. payload-block leases that would otherwise be stranded with the
// message.
func DrainFunc(q Queue, fn func(core.Msg)) int {
	n := 0
	for {
		m, ok := q.Dequeue()
		if !ok {
			return n
		}
		fn(m)
		n++
	}
}
