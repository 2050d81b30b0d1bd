// Package core implements the paper's contribution: a Send/Receive/Reply
// user-level IPC interface layered over shared-memory FIFO queues, with
// four sleep/wake-up protocols:
//
//   - BSS  — Both Sides Spin (Figure 1): busy-wait on empty/full queues.
//   - BSW  — Both Sides Wait (Figure 5): counting semaphores plus a
//     per-queue awake flag, with test-and-set closing the wake-up races
//     of Figure 4.
//   - BSWY — Both Sides Wait and Yield (Figure 7): BSW plus
//     busy_wait/yield calls that suggest hand-off scheduling.
//   - BSLS — Both Sides Limited Spin (Figure 9): poll the queue up to
//     MAX_SPIN times before entering the blocking path.
//
// The algorithms are written once against two interfaces: Port (one
// endpoint of a shared queue: enqueue and dequeue, single or in bursts,
// its consumer's wake state and its shutdown state) and Actor (the
// process's system-call surface). internal/simbind binds them
// to the discrete-event kernel for the paper's experiments;
// internal/livebind binds them to real atomics and goroutines for use as
// a library.
//
// Each verb has one form, the context-threaded one (SendCtx, ReceiveCtx,
// ReplyCtx, ServeCtx and their batch forms): it is the protocol. Four
// plain wrappers remain, Client.Send and Server.Receive, Reply and
// Serve: each is a one-line call of its Ctx verb under
// context.Background(), mapping errors to the OpShutdown marker message
// (see plainMsg in errors.go).
package core

import "context"

// Msg is the fixed-size message the paper's evaluation exchanges: an
// opcode identifying the request type, the reply channel on which to
// return the result, and a double-precision argument. Fixed-size messages
// permit efficient free-pool management; variable-sized payloads hang off
// a shared-memory block reference carried in Ref (Section 2.1) — a
// dedicated integer field, so float NaN canonicalization can never
// corrupt a reference the way it could when Val carried the bits.
// Ref's encoding (see SetBlock) makes the zero value mean "no payload".
//
// MsgMeta holds the runtime-owned fields — the reply route and the
// payload block reference — and exists for a load-bearing reason beyond
// taxonomy: the compiler only keeps a struct in registers if it has at
// most four fields (ssa.MaxStruct); a flat five-field Msg is forced
// into memory form, and every enqueue/dequeue copy in the spin loops
// pays loads and stores instead of register moves — measured at +20-50%
// p50 on the BSS echo path. Embedding keeps Msg at four fields (the
// nested pair is checked recursively and passes), so field promotion
// gives callers m.Client/m.Ref while the hot path stays in registers.
// Do not add a fifth field to either struct without re-measuring.
type MsgMeta struct {
	Client int32
	Ref    uint64
}

// Msg is the fixed-size control message.
type Msg struct {
	Op  int32
	Seq int32
	Val float64
	MsgMeta
}

// Operation codes used by the client/server harness.
const (
	OpEcho       int32 = iota // echo Val back to the client
	OpConnect                 // client announces itself
	OpDisconnect              // client is done
	OpWork                    // echo after simulated server-side work
)

// SemID names the counting semaphore associated with a queue's consumer.
type SemID int

// SendPort is the producer's view of a shared one-way queue: enqueue,
// then claim the right to wake the consumer. It also carries the
// queue's depth and its shutdown and peer-death state, which the
// protocol paths consult on every full-queue and blocking cycle. An
// endpoint without a capability reports zero: the simulator's ports
// never refuse, never die and admit everything.
type SendPort interface {
	// TryEnqueue attempts to append m; it reports false if the queue
	// (i.e. the shared free pool) is full.
	TryEnqueue(m Msg) bool

	// TryEnqueueBatch appends a prefix of ms and returns how many were
	// taken (0 when full): a burst published with one routing or
	// locking decision where the queue has one, EnqueueEach otherwise.
	// An endpoint that is never enqueued on returns 0.
	TryEnqueueBatch(ms []Msg) int

	// ClaimWake reports whether this producer must issue the wake-up V
	// after an enqueue. A single-consumer port test-and-sets the awake
	// flag and claims the wake when the flag was clear (the Figure 4
	// race-2 fix); a worker-pool port claims a registered waiter.
	ClaimWake() bool

	// Sem identifies the counting semaphore the consumer sleeps on.
	Sem() SemID

	// Depth is the number of queued messages, the bounded-admission
	// observable (a racy snapshot). 0 admits everything; an endpoint
	// that is never enqueued on returns 0.
	Depth() int

	// Refusing reports that the port accepts no new messages: the
	// system is draining (producers stop, consumers keep going) or
	// fully shut down.
	Refusing() bool

	// Closed reports that the port is fully shut down: queued messages
	// may still be drained, but no more will arrive and parked
	// consumers have been (or are being) unblocked.
	Closed() bool

	// PeerDead reports that the participant on the other side of the
	// port was declared dead by the recovery sweeper. A dead port is
	// also closed, so parked waiters unblock; PeerDead makes the *Ctx
	// paths report ErrPeerDead rather than ErrShutdown.
	PeerDead() bool
}

// Port is one process's endpoint view of a shared one-way queue together
// with the consumer-side wake state (the awake flag and the counting
// semaphore the consumer sleeps on).
type Port interface {
	SendPort

	// TryDequeue attempts to remove the head message.
	TryDequeue() (Msg, bool)

	// TryDequeueBatch removes up to len(dst) queued messages into dst
	// and returns how many (0 when empty), vectored where the queue
	// allows, DequeueEach otherwise. An endpoint that is never dequeued
	// from returns 0.
	TryDequeueBatch(dst []Msg) int

	// Empty is the non-destructive poll used by the BSLS spin loop.
	Empty() bool

	// SetAwake plainly stores the consumer's awake flag (steps C.2/C.5).
	SetAwake(v bool)

	// TASAwake atomically test-and-sets the awake flag to true and
	// returns the previous value. Producers use it so that only the
	// first to find the flag clear issues the wake-up; consumers use it
	// to detect a redundant pending wake-up (the Figure 4 race fixes).
	TASAwake() bool
}

// EnqueueEach is TryEnqueueBatch for a port with no vectored enqueue:
// it appends ms one TryEnqueue at a time until the queue is full.
func EnqueueEach(q SendPort, ms []Msg) int {
	for i, m := range ms {
		if !q.TryEnqueue(m) {
			return i
		}
	}
	return len(ms)
}

// DequeueEach is TryDequeueBatch for a port with no vectored dequeue:
// it fills dst one TryDequeue at a time until the queue is empty.
func DequeueEach(q Port, dst []Msg) int {
	for i := range dst {
		m, ok := q.TryDequeue()
		if !ok {
			return i
		}
		dst[i] = m
	}
	return len(dst)
}

// Actor is the system-call surface a protocol participant uses. The
// uniprocessor/multiprocessor split of busy_wait (yield vs delay loop)
// lives behind this interface, so protocol code ports transparently
// (Section 4.1).
type Actor interface {
	// Yield performs a yield() system call.
	Yield()

	// BusyWait is the paper's busy_wait(): yield() on a uniprocessor, a
	// fixed delay loop on a multiprocessor.
	BusyWait()

	// PollDelay is one poll_queue iteration of the BSLS spin loop:
	// yield() on a uniprocessor, a 25us busy-wait on a multiprocessor.
	PollDelay()

	// SleepCtx sleeps at least s seconds (UNIX sleep semantics, scaled
	// by the binding); used on queue-full, which implies the consumer is
	// saturated. It returns ctx.Err() if the context ends first.
	SleepCtx(ctx context.Context, s int) error

	// P blocks on the counting semaphore if its count is zero.
	P(SemID)

	// PCtx is P with cancellation. It returns nil when a semaphore
	// token was consumed; ctx.Err() when the wait was cancelled WITHOUT
	// consuming a token (when a grant and the cancellation race, one of
	// them is decided first and the other loses — see the wake-token
	// accounting note on receiveLeg); and ErrShutdown when the
	// semaphore was shut down.
	PCtx(ctx context.Context, id SemID) error

	// V unblocks a waiter or increments the count. V never forces a
	// rescheduling decision (System V semantics); Grant may.
	V(SemID)

	// Grant is a V by a caller that waits next: the caller's following
	// step is to block on its own reply. Unlike V it may force a
	// rescheduling decision, running the woken waiter at once, which is
	// the hand-off scheduling the paper's Section 6 proposes for exactly
	// this case. Implementations without a cheap directed switch treat
	// it as V. Its only caller is the synchronous send's request wake.
	Grant(SemID)

	// Handoff suggests running the process that owns the given port
	// (the Section 6 extension). Implementations without hand-off
	// support treat it as Yield.
	Handoff(target int)
}

// Algorithm selects a sleep/wake-up protocol.
type Algorithm int

// The four protocols of the paper, plus BSA — the adaptive fifth: the
// BSLS shape with the fixed MAX_SPIN replaced by an online controller
// (see Tuner) that tunes the spin budget from observed wait feedback.
// String/AlgorithmByName/Algorithms/AlgorithmNames derive from the
// registration table in registry.go.
const (
	BSS Algorithm = iota
	BSW
	BSWY
	BSLS
	BSA
)

// DefaultMaxSpin is the MAX_SPIN the paper recommends for BSLS: "at a
// MAX_SPIN value of 20, a single client only blocks 3% of the time".
const DefaultMaxSpin = 20
