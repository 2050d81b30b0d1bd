package queue

import (
	"sync/atomic"

	"ulipc/internal/core"
	"ulipc/internal/fault"
	"ulipc/internal/shm"
)

// TwoLock is the Michael & Scott two-lock concurrent queue [Michael &
// Scott, PODC'96] over an offset-addressed node arena. A dummy node
// decouples the head and tail locks so enqueuers never contend with
// dequeuers; the fixed-size node pool provides flow control.
//
// The head half (lock + dummy ref, touched by dequeuers) and the tail
// half (lock + tail ref, touched by enqueuers) live on separate
// 64-byte cache lines: the two-lock design's whole point is that the
// two parties don't contend, and sharing a line would reintroduce that
// contention as coherence traffic.
//
// Both locks are generation-stamped rlocks rather than sync.Mutexes so
// a holder that dies mid-critical-section (injected by internal/fault,
// or a real peer death in a shared-memory deployment) can have its lock
// reclaimed and the node list re-validated by RecoverDead — the robust-
// mutex story for the queue.
type TwoLock struct {
	pool     *shm.Pool
	capacity int

	_      [64]byte
	headMu rlock
	head   atomic.Uint32 // dummy node ref; head.next is the first real element

	_      [64]byte
	tailMu rlock
	tail   shm.Ref
	_      [64]byte
}

// NewTwoLock builds a two-lock queue holding at most capacity messages.
func NewTwoLock(capacity int) (*TwoLock, error) {
	// One extra node for the dummy.
	pool, err := shm.NewPoolSize(capacity + 1)
	if err != nil {
		return nil, err
	}
	dummy, ok := pool.Alloc()
	if !ok {
		panic("queue: fresh pool exhausted")
	}
	pool.Arena().Node(dummy).SetNext(shm.NilRef)
	q := &TwoLock{pool: pool, tail: dummy, capacity: capacity}
	q.head.Store(dummy)
	return q, nil
}

// Cap implements Queue.
func (q *TwoLock) Cap() int { return q.capacity }

// Pool exposes the backing node pool (diagnostics and the node
// conservation checks in tests).
func (q *TwoLock) Pool() *shm.Pool { return q.pool }

// Enqueue implements Queue.
func (q *TwoLock) Enqueue(m core.Msg) bool {
	return q.EnqueueAs(AnonOwner, m, fault.Hook{})
}

// EnqueueAs is Enqueue with an owner identity for robust-lock
// accounting and a fault hook whose crashpoints may kill the caller
// mid-critical-section. The critical section deliberately has no
// deferred unlock: an injected crash must leave the lock held so
// RecoverDead has something real to reclaim. The pending-ref window
// (allocated, not yet reachable from the queue) is registered with the
// hook so a crash inside it leaves a reclaimable orphan rather than a
// leaked node.
func (q *TwoLock) EnqueueAs(owner int32, m core.Msg, fh fault.Hook) bool {
	node, ok := q.pool.Alloc()
	if !ok {
		return false // pool exhausted: queue full
	}
	fh.SetPending(q.pool, node)
	fh.Crashpoint(fault.PtAfterAlloc) // dies owning an unlinked node

	a := q.pool.Arena()
	n := a.Node(node)
	n.SetMsg(m)
	n.SetNext(shm.NilRef)

	h := q.tailMu.Lock(owner)
	a.Node(q.tail).SetNext(node)
	// The node is now reachable from the tail walk, so it is the
	// queue's — clear pending BEFORE the crashpoint or the sweeper
	// would free a linked node.
	fh.ClearPending()
	fh.Crashpoint(fault.PtEnqueueLocked) // dies holding tailMu, tail stale
	q.tail = node
	q.tailMu.Unlock(h)
	return true
}

// Dequeue implements Queue.
func (q *TwoLock) Dequeue() (core.Msg, bool) {
	return q.DequeueAs(AnonOwner, fault.Hook{})
}

// DequeueAs is Dequeue with owner identity and fault hook. A crash
// while holding the head lock leaves the message still queued (head not
// yet advanced), so recovery merely reclaims the lock and the message
// is re-delivered; a crash after unlock but before the free leaves the
// old dummy as a pending ref the sweeper returns to the pool, and the
// unlinked message as held, so the sweeper can return its payload.
func (q *TwoLock) DequeueAs(owner int32, fh fault.Hook) (core.Msg, bool) {
	a := q.pool.Arena()
	h := q.headMu.Lock(owner)
	dummy := q.head.Load()
	first := a.Node(dummy).Next()
	if first == shm.NilRef {
		q.headMu.Unlock(h)
		return core.Msg{}, false
	}
	m := a.Node(first).Msg()
	fh.Crashpoint(fault.PtDequeueLocked) // dies holding headMu, msg still queued
	q.head.Store(first)                  // first becomes the new dummy
	fh.SetPendingMsg(q.pool, dummy, m)
	q.headMu.Unlock(h)
	fh.Crashpoint(fault.PtBeforeFree) // dies owning the unlinked old dummy
	q.pool.Free(dummy)
	fh.ClearPending()
	return m, true
}

// Empty implements Queue. It is lock-free: an atomic load of the dummy
// ref followed by an atomic load of that node's link, so the BSLS spin
// loop can poll it without contending with dequeuers on the head lock.
//
// The read races benignly with Dequeue: the loaded dummy may be freed
// (its link rewritten by the pool) between the two loads, yielding a
// stale answer — acceptable for Empty's documented contract of a
// non-destructive poll that may race. Callers act on the answer by
// attempting a real (locked) dequeue, which re-checks.
func (q *TwoLock) Empty() bool {
	return q.pool.Arena().Node(q.head.Load()).Next() == shm.NilRef
}

// Len returns the number of queued messages (O(n); diagnostics only).
func (q *TwoLock) Len() int {
	a := q.pool.Arena()
	h := q.headMu.Lock(AnonOwner)
	n := 0
	for r := a.Node(q.head.Load()).Next(); r != shm.NilRef; r = a.Node(r).Next() {
		n++
	}
	q.headMu.Unlock(h)
	return n
}

// RecoverDead reclaims the locks a dead owner left held, repairing the
// structure first, and reports how many locks were revoked. The caller
// (livebind's sweeper) guarantees the owner's goroutine is gone; no
// third party can slip into the dead owner's critical section during
// repair because the lock word still names the dead owner until the
// revoking CAS.
//
// When several owners may have died holding locks on the same queue,
// call RecoverDeadHead for every dead owner before any RecoverDeadTail:
// the tail repair acquires the head lock, and would otherwise spin on a
// dead dequeuer's lock that nobody has revoked yet.
//
// Safe to call for owners that hold nothing (returns 0), and safe to
// call repeatedly.
func (q *TwoLock) RecoverDead(owner int32) int {
	return q.RecoverDeadHead(owner) + q.RecoverDeadTail(owner)
}

// RecoverDeadHead revokes the head lock if the dead owner holds it.
// Every crashpoint under the head lock fires before the head ref moves,
// so the structure is already consistent: the lock is simply revoked
// and the in-flight message re-delivered to the next dequeuer.
func (q *TwoLock) RecoverDeadHead(owner int32) int {
	if q.headMu.HeldBy(owner) && q.headMu.Revoke(owner) {
		return 1
	}
	return 0
}

// RecoverDeadTail repairs the tail and revokes the tail lock if the
// dead owner holds it. The dead enqueuer may have linked its node
// without advancing the tail (PtEnqueueLocked); the linked message is
// preserved and delivered.
//
// The repair cannot trust the stale tail ref: while the dead owner held
// the lock, dequeuers were free to advance the dummy PAST the stale
// tail and hand that node back to the pool, after which its link word
// belongs to the free list, not the queue. The only trustworthy walk
// starts at the head dummy, and it is only stable with dequeuers held
// off — so the repair takes the head lock, re-derives the true tail
// from the dummy, and revokes the tail lock before letting dequeuers
// back in (a dequeuer running between the repair and the revoke could
// free the repaired tail all over again).
func (q *TwoLock) RecoverDeadTail(owner int32) int {
	if !q.tailMu.HeldBy(owner) {
		return 0
	}
	locks := 0
	h := q.headMu.Lock(AnonOwner)
	q.repairTail()
	if q.tailMu.Revoke(owner) {
		locks++
	}
	q.headMu.Unlock(h)
	return locks
}

// repairTail advances the tail ref to the true end of the list, walking
// from the head dummy (the one ref that is always a live queue node).
// Called with BOTH locks held — the tail lock by the dead owner being
// recovered, the head lock by the recoverer — so neither end of the
// list can move mid-walk.
func (q *TwoLock) repairTail() {
	a := q.pool.Arena()
	t := q.head.Load()
	for {
		n := a.Node(t).Next()
		if n == shm.NilRef {
			break
		}
		t = n
	}
	q.tail = t
}
