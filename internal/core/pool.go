package core

import (
	"context"
	"sync/atomic"

	"ulipc/internal/metrics"
	"ulipc/internal/obs"
)

// Worker-pool server: Section 2.1 contemplates "multiple clients and
// multiple server threads" on the shared queues, but the paper's single
// awake flag cannot represent several sleeping workers — one V satisfies
// the flag and a second sleeping worker is never woken even though its
// message is queued (internal/protomodel finds the interleaving
// exhaustively). The pool uses the counted-waiters discipline instead,
// verified by the same model checker:
//
//   - a worker REGISTERS (waiters++) before its re-check, and sleeps if
//     the re-check still finds nothing;
//   - a producer, after enqueueing, CLAIMS a waiter (atomic decrement if
//     positive) and only then issues the V;
//   - a worker whose re-check found a message tries to unregister
//     (atomic decrement if positive); if it was already claimed it just
//     moves on — the stale V wakes some worker spuriously, and every
//     woken worker re-checks the queue before sleeping again. Draining
//     the V here instead would steal a live wake-up from a sibling (the
//     checker finds that deadlock too).
//
// Cancellation composes with the same discipline: a worker cancelled
// while parked consumed no token (PCtx decides grant or cancel once), and
// it withdraws its registration on the way out. If a producer already
// claimed the registration, the producer's V stays in the semaphore and
// the next parked sibling absorbs it as a spurious wake — the message
// is in the queue, so no wake-up is lost.

// PoolPort is a queue endpoint whose consumer side is a pool of workers
// synchronised by a waiter counter.
type PoolPort interface {
	// SendPort's ClaimWake claims a waiter: it atomically decrements
	// the waiter count if it is positive, and true directs the producer
	// to issue the wake-up V. Sem is the semaphore the pool sleeps on.
	SendPort

	TryDequeue() (Msg, bool)
	Empty() bool

	// RegisterWaiter increments the waiter count (a worker is about to
	// re-check and then sleep).
	RegisterWaiter()

	// TryUnregisterWaiter atomically decrements the waiter count if it
	// is positive; false means a producer already claimed this
	// registration (its V is, or will be, pending).
	TryUnregisterWaiter() bool
}

// PoolCoordinator is the shared bookkeeping of one worker pool:
// connection accounting and shutdown broadcast. All fields are atomic so
// the same type serves the live runtime and the simulator.
type PoolCoordinator struct {
	Workers int

	connected atomic.Int64
	ever      atomic.Bool
	served    atomic.Int64
	stop      atomic.Bool
}

// Stopped reports whether the pool has been shut down.
func (pc *PoolCoordinator) Stopped() bool { return pc.stop.Load() }

// Stop marks the pool as shut down. It only raises the flag; the caller
// must also wake parked workers (System.Shutdown broadcasts Vs, and the
// last-disconnect path in Serve does the same) so they observe it.
func (pc *PoolCoordinator) Stop() { pc.stop.Store(true) }

// Served returns the number of data requests handled across workers.
func (pc *PoolCoordinator) Served() int64 { return pc.served.Load() }

// PoolWorker is one server thread of a worker pool. All workers of a
// pool share the receive PoolPort, the reply ports and the coordinator;
// each has its own Actor (its own process/goroutine context).
type PoolWorker struct {
	Alg     Algorithm
	MaxSpin int
	Tuner   *Tuner // BSA spin-budget controller (lazily built if nil)
	Rcv     PoolPort
	Replies []Port
	A       Actor
	C       *PoolCoordinator
	M       *metrics.Proc
	Obs     obs.Hook // optional phase histograms + flight recorder

	// audit counts the requests this worker received and has not yet
	// replied to (each request is received and replied by one worker).
	audit replyAudit
}

// ReceiveCtx returns the next request. It returns ErrShutdown once the
// pool has stopped (or the system shut down) and ctx.Err() when the
// context ends first. Wake-ups are re-checked against both the queue and
// the stop flag, so spurious wakes (stale claimed Vs, shutdown
// broadcast) are absorbed here.
func (w *PoolWorker) ReceiveCtx(ctx context.Context) (Msg, error) {
	for {
		if w.C.Stopped() {
			return Msg{}, ErrShutdown
		}
		if err := ctxErr(ctx); err != nil {
			return Msg{}, err
		}
		if m, ok := w.Rcv.TryDequeue(); ok {
			return w.received(m), nil
		}
		switch w.Alg {
		case BSS:
			// Busy-wait with stop checks; no registration needed.
			w.A.BusyWait()
			continue
		case BSWY:
			w.A.Yield()
		case BSLS, BSA: // receiveLeg's spin, one frame below the verb
			budget, t, t0 := spinStart(w.Alg, w.MaxSpin, &w.Tuner, w.M, w.Obs)
			n := 0
			for w.Rcv.Empty() && n < budget {
				w.A.PollDelay()
				n++
				if w.M != nil {
					w.M.SpinIters.Add(1)
				}
			}
			spinEnd(w.Rcv, n, budget, t, t0, w.M, w.Obs)
		}
		w.Rcv.RegisterWaiter()
		if m, ok := w.Rcv.TryDequeue(); ok {
			// Late success: unregister, or — if a producer claimed us —
			// leave the stale V for a sibling's re-check cycle.
			w.Rcv.TryUnregisterWaiter()
			return w.received(m), nil
		}
		if w.C.Stopped() {
			// Don't park across shutdown; the registration is stale but
			// harmless (no producer will claim it).
			return Msg{}, ErrShutdown
		}
		if err := w.A.PCtx(ctx, w.Rcv.Sem()); err != nil {
			// Cancelled without a token (a racing grant would have
			// won). Withdraw the registration; if a producer already
			// claimed it the V stays pending and a parked sibling absorbs
			// it as a spurious wake — the message is queued, so no
			// wake-up is lost.
			w.Rcv.TryUnregisterWaiter()
			return Msg{}, err
		}
		// Woken (possibly spuriously): loop to re-check.
	}
}

// received counts a dequeued request and notes it for the audit.
func (w *PoolWorker) received(m Msg) Msg {
	if w.M != nil {
		w.M.MsgsReceived.Add(1)
	}
	w.audit.received(m.Client, len(w.Replies))
	return m
}

// ReplyCtx sends a response to the client and wakes it if needed.
// Replying to a client this worker has no received request outstanding
// for (an invalid channel number included) returns ErrDoubleReply. Reply
// queues have a single consumer each, so the paper's flag protocol
// applies unchanged; a synchronous client has at most one outstanding
// request, so no two workers touch the same reply queue concurrently.
func (w *PoolWorker) ReplyCtx(ctx context.Context, client int32, m Msg) error {
	if w.audit.outstanding(client) <= 0 {
		return ErrDoubleReply
	}
	q := w.Replies[client]
	if err := enqueueCtx(ctx, w.Alg, q, w.A, m, w.M, nil, w.Obs); err != nil {
		return err
	}
	w.audit.replied(client, 1)
	if w.Alg != BSS {
		wake(q, w.A)
	}
	return nil
}

// ServeCtx runs this worker's echo loop until the pool shuts down: it
// returns nil when the pool stops (last disconnect or graceful system
// shutdown) and ctx.Err() when the context ends first. The worker that
// processes the last disconnect broadcasts shutdown by waking every
// sibling. Replies go out under context.Background(); one the queue
// refused (shutdown) is dropped.
func (w *PoolWorker) ServeCtx(ctx context.Context, work func(*Msg)) error {
	reply := func(m Msg) { _ = w.ReplyCtx(context.Background(), m.Client, m) }
	for {
		m, err := w.ReceiveCtx(ctx)
		if err == ErrShutdown {
			return nil
		}
		if err != nil {
			return err
		}
		if m.Client < 0 || int(m.Client) >= len(w.Replies) {
			continue
		}
		switch m.Op {
		case OpConnect:
			w.C.connected.Add(1)
			w.C.ever.Store(true)
			reply(m)
		case OpDisconnect:
			left := w.C.connected.Add(-1)
			reply(m)
			if w.C.ever.Load() && left == 0 {
				w.C.stop.Store(true)
				// Shutdown broadcast: unconditional Vs so parked
				// siblings wake, observe the stop flag and exit.
				for i := 0; i < w.C.Workers; i++ {
					w.A.V(w.Rcv.Sem())
				}
				return nil
			}
		case OpWork:
			if work != nil {
				w := m // see Server.ServeCtx
				work(&w)
				m = w
			}
			w.C.served.Add(1)
			reply(m)
		default: // OpEcho
			w.C.served.Add(1)
			reply(m)
		}
	}
}
