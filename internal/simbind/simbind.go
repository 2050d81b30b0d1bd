// Package simbind binds the protocol code of internal/core to the
// discrete-event kernel of internal/sim. Every shared-memory operation
// (queue op, awake-flag access) is a timed step, so operations from
// different simulated processes interleave at the same granularity the
// paper's race analysis (Figure 4) considers, and multiprocessor lock
// contention on the two-lock queue is modelled in virtual time.
package simbind

import (
	"context"

	"ulipc/internal/core"
	"ulipc/internal/machine"
	"ulipc/internal/sim"
)

// spinLock models one lock of the Michael & Scott two-lock queue: it is
// considered held until freeAt; an acquirer whose attempt lands earlier
// spins (consuming virtual CPU) until then. On a uniprocessor the engine
// serialises steps so the lock never spins; on the multiprocessor model
// it captures queue-op serialisation between CPUs.
type spinLock struct {
	freeAt sim.Time
}

func (l *spinLock) acquire(p *sim.Proc, opCost, hold sim.Time) {
	p.Step(opCost)
	for l.freeAt > p.Now() {
		p.Step(l.freeAt - p.Now())
	}
	l.freeAt = p.Now() + hold
}

// SQueue is a simulated shared-memory FIFO queue with the consumer-side
// wake state (awake flag + counting semaphore) the protocols need. The
// head and tail locks follow the two-lock queue: enqueuers and dequeuers
// do not contend with each other.
type SQueue struct {
	name     string
	capacity int
	msgs     []core.Msg
	headLock spinLock
	tailLock spinLock
	awake    bool
	waiters  int // worker-pool registrations (counted-waiters discipline)
	sem      sim.SemID

	// Enqueues and Dequeues count successful operations (diagnostics).
	Enqueues int64
	Dequeues int64
}

// NewQueue creates a simulated shared queue with the given capacity (the
// size of the fixed-message free pool) whose consumer sleeps on a fresh
// kernel semaphore. The awake flag starts true: a consumer is awake until
// it declares otherwise.
func NewQueue(k *sim.Kernel, name string, capacity int) *SQueue {
	if capacity < 1 {
		capacity = 1
	}
	return &SQueue{
		name:     name,
		capacity: capacity,
		awake:    true,
		sem:      k.NewSem(0),
	}
}

// Name returns the queue's diagnostic name.
func (q *SQueue) Name() string { return q.name }

// Len returns the current number of queued messages.
func (q *SQueue) Len() int { return len(q.msgs) }

// Port is a process's endpoint on a simulated shared queue. It implements
// core.Port, charging the machine model's primitive costs per operation.
type Port struct {
	q    *SQueue
	p    *sim.Proc
	mach *machine.Model
}

// NewPort returns p's endpoint view of q.
func NewPort(p *sim.Proc, q *SQueue) *Port {
	return &Port{q: q, p: p, mach: p.Kernel().Machine()}
}

// TryEnqueue implements core.Port.
func (sp *Port) TryEnqueue(m core.Msg) bool {
	sp.q.tailLock.acquire(sp.p, sp.mach.EnqueueCost, sp.mach.LockHold)
	if len(sp.q.msgs) >= sp.q.capacity {
		return false
	}
	sp.q.msgs = append(sp.q.msgs, m)
	sp.q.Enqueues++
	return true
}

// TryEnqueueBatch implements core.Port, one charged TryEnqueue per
// message.
func (sp *Port) TryEnqueueBatch(ms []core.Msg) int { return core.EnqueueEach(sp, ms) }

// TryDequeue implements core.Port.
func (sp *Port) TryDequeue() (core.Msg, bool) {
	sp.q.headLock.acquire(sp.p, sp.mach.DequeueCost, sp.mach.LockHold)
	if len(sp.q.msgs) == 0 {
		return core.Msg{}, false
	}
	m := sp.q.msgs[0]
	sp.q.msgs = sp.q.msgs[1:]
	sp.q.Dequeues++
	return m, true
}

// TryDequeueBatch implements core.Port, one charged TryDequeue per
// message.
func (sp *Port) TryDequeueBatch(dst []core.Msg) int { return core.DequeueEach(sp, dst) }

// Empty implements core.Port (the BSLS non-destructive poll).
func (sp *Port) Empty() bool {
	sp.p.Step(sp.mach.EmptyCost)
	return len(sp.q.msgs) == 0
}

// SetAwake implements core.Port.
func (sp *Port) SetAwake(v bool) {
	sp.p.Step(sp.mach.StoreCost)
	sp.q.awake = v
}

// TASAwake implements core.Port.
func (sp *Port) TASAwake() bool {
	sp.p.Step(sp.mach.TASCost)
	old := sp.q.awake
	sp.q.awake = true
	return old
}

// ClaimWake implements core.Port: the producer's test-and-set.
func (sp *Port) ClaimWake() bool { return !sp.TASAwake() }

// Sem implements core.Port.
func (sp *Port) Sem() core.SemID { return core.SemID(sp.q.sem) }

// Depth, Refusing, Closed and PeerDead implement core.Port for a
// simulated queue that admits everything, never shuts down and has no
// recovery sweeper. They read no shared memory, so they charge no
// simulated time.
func (sp *Port) Depth() int     { return 0 }
func (sp *Port) Refusing() bool { return false }
func (sp *Port) Closed() bool   { return false }
func (sp *Port) PeerDead() bool { return false }

// Actor adapts a simulated process to core.Actor.
type Actor struct {
	p    *sim.Proc
	mach *machine.Model
}

// NewActor returns the core.Actor view of a simulated process.
func NewActor(p *sim.Proc) *Actor {
	return &Actor{p: p, mach: p.Kernel().Machine()}
}

// Yield implements core.Actor.
func (a *Actor) Yield() { a.p.Yield() }

// BusyWait implements core.Actor: yield() on a uniprocessor, a fixed
// delay loop on a multiprocessor (Section 4.1: "the software is identical
// ... except that busy-waiting is implemented as a yield() system call on
// the uniprocessor and as a busy-wait delay loop on the multiprocessor").
func (a *Actor) BusyWait() {
	if a.mach.BusyWaitSpin {
		a.p.Step(a.mach.SpinPollCost)
		return
	}
	a.p.Yield()
}

// PollDelay implements core.Actor (one poll_queue iteration).
func (a *Actor) PollDelay() { a.BusyWait() }

// P implements core.Actor.
func (a *Actor) P(id core.SemID) { a.p.SemP(sim.SemID(id)) }

// PCtx and SleepCtx implement core.Actor as the simulator's P and
// SleepSec: simulated time has no caller to cancel from, so the context
// never ends.
func (a *Actor) PCtx(_ context.Context, id core.SemID) error { a.P(id); return nil }

// SleepCtx implements core.Actor (see PCtx).
func (a *Actor) SleepCtx(_ context.Context, s int) error { a.p.SleepSec(s); return nil }

// V implements core.Actor.
func (a *Actor) V(id core.SemID) { a.p.SemV(sim.SemID(id)) }

// Grant implements core.Actor as V, so the simulated protocols keep
// the paper's System V semantics; the simulator's hand-off is Handoff.
func (a *Actor) Grant(id core.SemID) { a.V(id) }

// Handoff implements core.Actor, mapping the protocol-level targets onto
// the kernel's handoff system call.
func (a *Actor) Handoff(target int) {
	switch target {
	case core.HandoffSelf:
		a.p.Handoff(sim.PIDSelf)
	case core.HandoffAny:
		a.p.Handoff(sim.PIDAny)
	default:
		a.p.Handoff(target)
	}
}

var (
	_ core.Port  = (*Port)(nil)
	_ core.Actor = (*Actor)(nil)
)

// PoolPort is a process's endpoint on a simulated shared queue whose
// consumer side is a worker pool (counted waiters instead of the single
// awake flag). It implements core.PoolPort: the queue operations are
// Port's, the wake claim takes a registered waiter.
type PoolPort struct {
	Port
}

// NewPoolPort returns p's pool-endpoint view of q.
func NewPoolPort(p *sim.Proc, q *SQueue) *PoolPort {
	return &PoolPort{Port{q: q, p: p, mach: p.Kernel().Machine()}}
}

// RegisterWaiter implements core.PoolPort (an atomic increment on shared
// memory: test-and-set weight).
func (sp *PoolPort) RegisterWaiter() {
	sp.p.Step(sp.mach.TASCost)
	sp.q.waiters++
}

// TryUnregisterWaiter implements core.PoolPort.
func (sp *PoolPort) TryUnregisterWaiter() bool {
	sp.p.Step(sp.mach.TASCost)
	if sp.q.waiters > 0 {
		sp.q.waiters--
		return true
	}
	return false
}

// ClaimWake implements core.PoolPort: claim a registered waiter, the
// same atomic decrement-if-positive as TryUnregisterWaiter.
func (sp *PoolPort) ClaimWake() bool { return sp.TryUnregisterWaiter() }

var _ core.PoolPort = (*PoolPort)(nil)
