package core

import (
	"context"
	"sync/atomic"
	"time"

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
	TryEnqueue(m Msg) bool
	TryDequeue() (Msg, bool)
	Empty() bool

	// RegisterWaiter increments the waiter count (a worker is about to
	// re-check and then sleep).
	RegisterWaiter()

	// TryUnregisterWaiter atomically decrements the waiter count if it
	// is positive; false means a producer already claimed this
	// registration (its V is, or will be, pending).
	TryUnregisterWaiter() bool

	// ClaimWaiter atomically decrements the waiter count if it is
	// positive; true directs the producer to issue the wake-up V.
	ClaimWaiter() bool

	// Sem identifies the counting semaphore the pool sleeps on.
	Sem() SemID
}

// poolWake is the producer-side wake: claim a waiter, then V.
func poolWake(q PoolPort, a Actor) {
	if q.ClaimWaiter() {
		a.V(q.Sem())
	}
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

	// outstanding[i] counts requests this worker received from client i
	// and has not yet replied to — the double-reply audit consulted by
	// ReplyCtx. A worker handle is single-goroutine, so plain ints
	// suffice (each request is received and replied by the same worker).
	outstanding []int32
}

func (w *PoolWorker) maxSpin() int {
	if w.MaxSpin <= 0 {
		return DefaultMaxSpin
	}
	return w.MaxSpin
}

// spinRcv runs the pre-block spin prefix on the shared pool queue:
// BSLS's fixed budget, or BSA's controller-tuned budget.
func (w *PoolWorker) spinRcv() {
	if w.Alg == BSA {
		if w.Tuner == nil {
			w.Tuner = NewTuner(TunerConfig{})
		}
		adaptiveSpin(w.Rcv, w.A, w.Tuner, w.M, w.Obs)
		return
	}
	spinPollObs(w.Rcv, w.A, w.maxSpin(), w.M, w.Obs)
}

func (w *PoolWorker) noteReceived(client int32) {
	if client < 0 || int(client) >= len(w.Replies) {
		return
	}
	if w.outstanding == nil {
		w.outstanding = make([]int32, len(w.Replies))
	}
	w.outstanding[client]++
}

func (w *PoolWorker) noteReplied(client int32) {
	if w.outstanding != nil && w.outstanding[client] > 0 {
		w.outstanding[client]--
	}
}

// Receive returns the next request, or false when the pool has shut
// down. Wake-ups are re-checked against both the queue and the stop
// flag, so spurious wakes (stale claimed Vs, shutdown broadcast) are
// absorbed here.
func (w *PoolWorker) Receive() (Msg, bool) {
	for {
		if w.C.Stopped() {
			return Msg{}, false
		}
		if m, ok := w.Rcv.TryDequeue(); ok {
			if w.M != nil {
				w.M.MsgsReceived.Add(1)
			}
			w.noteReceived(m.Client)
			return m, true
		}
		switch w.Alg {
		case BSS:
			// Busy-wait with stop checks; no registration needed.
			w.A.BusyWait()
			continue
		case BSWY:
			w.A.Yield()
		case BSLS, BSA:
			w.spinRcv()
		}
		w.Rcv.RegisterWaiter()
		if m, ok := w.Rcv.TryDequeue(); ok {
			// Late success: unregister, or — if a producer claimed us —
			// leave the stale V for a sibling's re-check cycle.
			w.Rcv.TryUnregisterWaiter()
			if w.M != nil {
				w.M.MsgsReceived.Add(1)
			}
			w.noteReceived(m.Client)
			return m, true
		}
		if w.C.Stopped() {
			// Don't park across shutdown; the registration is stale but
			// harmless (no producer will claim it).
			return Msg{}, false
		}
		w.A.P(w.Rcv.Sem())
		// Woken (possibly spuriously): loop to re-check.
	}
}

// ReceiveCtx is Receive with deadline/cancellation support. It returns
// ErrShutdown once the pool has stopped (or the system shut down) and
// ctx.Err() when the context ends first.
func (w *PoolWorker) ReceiveCtx(ctx context.Context) (Msg, error) {
	ca, _ := w.A.(CtxActor)
	for {
		if w.C.Stopped() {
			return Msg{}, ErrShutdown
		}
		if err := ctxErr(ctx); err != nil {
			return Msg{}, err
		}
		if m, ok := w.Rcv.TryDequeue(); ok {
			if w.M != nil {
				w.M.MsgsReceived.Add(1)
			}
			w.noteReceived(m.Client)
			return m, nil
		}
		switch w.Alg {
		case BSS:
			w.A.BusyWait()
			continue
		case BSWY:
			w.A.Yield()
		case BSLS, BSA:
			w.spinRcv()
		}
		w.Rcv.RegisterWaiter()
		if m, ok := w.Rcv.TryDequeue(); ok {
			w.Rcv.TryUnregisterWaiter()
			if w.M != nil {
				w.M.MsgsReceived.Add(1)
			}
			w.noteReceived(m.Client)
			return m, nil
		}
		if w.C.Stopped() {
			return Msg{}, ErrShutdown
		}
		if ca == nil {
			w.Rcv.TryUnregisterWaiter()
			return Msg{}, ErrNotCancellable
		}
		if err := ca.PCtx(ctx, w.Rcv.Sem()); err != nil {
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

// Reply sends a response to the client and wakes it if needed. Reply
// queues have a single consumer each, so the paper's flag protocol
// applies unchanged; a synchronous client has at most one outstanding
// request, so no two workers touch the same reply queue concurrently.
func (w *PoolWorker) Reply(client int32, m Msg) {
	if client < 0 || int(client) >= len(w.Replies) {
		return // hostile/corrupted reply channel: drop
	}
	w.noteReplied(client)
	q := w.Replies[client]
	if w.Alg == BSS {
		busySpinUntil(w.A, q, func() bool { return q.TryEnqueue(m) })
		return
	}
	if !enqueueOrSleepObs(q, w.A, m, w.Obs) {
		return // shutdown: the client is being unblocked anyway
	}
	wakeConsumer(q, w.A)
}

// ReplyCtx is Reply with deadline/cancellation support and the
// double-reply audit: replying to a client this worker has no received
// request outstanding for returns ErrDoubleReply.
func (w *PoolWorker) ReplyCtx(ctx context.Context, client int32, m Msg) error {
	if client < 0 || int(client) >= len(w.Replies) {
		return ErrDoubleReply
	}
	if w.outstanding == nil || w.outstanding[client] <= 0 {
		return ErrDoubleReply
	}
	q := w.Replies[client]
	if w.Alg == BSS {
		if err := spinEnqueueCtx(ctx, w.A, q, m); err != nil {
			return err
		}
		w.noteReplied(client)
		return nil
	}
	if err := enqueueOrSleepCtxObs(ctx, q, w.A, m, w.M, nil, w.Obs); err != nil {
		return err
	}
	w.noteReplied(client)
	wakeConsumer(q, w.A)
	return nil
}

// Serve runs this worker's echo loop until the pool shuts down (all
// clients disconnected). The worker that processes the last disconnect
// broadcasts shutdown by waking every sibling.
func (w *PoolWorker) Serve(work func(*Msg)) {
	for {
		m, ok := w.Receive()
		if !ok {
			return
		}
		if client := m.Client; client < 0 || int(client) >= len(w.Replies) {
			continue
		}
		if w.step(m, work) {
			return
		}
	}
}

// ServeCtx is Serve with deadline/cancellation support: it returns nil
// when the pool stops (last disconnect or graceful system shutdown) and
// ctx.Err() when the context ends first.
func (w *PoolWorker) ServeCtx(ctx context.Context, work func(*Msg)) error {
	for {
		m, err := w.ReceiveCtx(ctx)
		if err == ErrShutdown {
			return nil
		}
		if err != nil {
			return err
		}
		if client := m.Client; client < 0 || int(client) >= len(w.Replies) {
			continue
		}
		if w.step(m, work) {
			return nil
		}
	}
}

// step processes one received request; it reports true when this worker
// broadcast pool shutdown (last disconnect) and should exit.
func (w *PoolWorker) step(m Msg, work func(*Msg)) (stop bool) {
	switch m.Op {
	case OpConnect:
		w.C.connected.Add(1)
		w.C.ever.Store(true)
		w.Reply(m.Client, m)
	case OpDisconnect:
		left := w.C.connected.Add(-1)
		w.Reply(m.Client, m)
		if w.C.ever.Load() && left == 0 {
			w.C.stop.Store(true)
			// Shutdown broadcast: unconditional Vs so parked
			// siblings wake, observe the stop flag and exit.
			for i := 0; i < w.C.Workers; i++ {
				w.A.V(w.Rcv.Sem())
			}
			return true
		}
	case OpWork:
		if work != nil {
			w := m // see Server.Serve
			work(&w)
			m = w
		}
		w.C.served.Add(1)
		w.Reply(m.Client, m)
	default: // OpEcho
		w.C.served.Add(1)
		w.Reply(m.Client, m)
	}
	return false
}

// PoolClient is the client side of a worker-pool server: requests go to
// the shared pool queue with claim-based wake-ups; replies arrive on the
// client's own single-consumer queue using the paper's flag protocol.
// Like Client, the handle is single-goroutine and drains replies owed
// for cancelled sends before enqueueing anything new; pool workers may
// retire cancelled requests out of order, but the client's reply queue
// still receives exactly one reply per enqueued request, so draining by
// count is sufficient.
type PoolClient struct {
	ID      int32
	Alg     Algorithm
	MaxSpin int
	Tuner   *Tuner   // BSA spin-budget controller (lazily built if nil)
	Srv     PoolPort // enqueue endpoint of the pool's receive queue
	Rcv     Port     // dequeue endpoint of this client's reply queue
	A       Actor
	M       *metrics.Proc
	Obs     obs.Hook // optional phase histograms + flight recorder

	lag int
}

func (c *PoolClient) maxSpin() int {
	if c.MaxSpin <= 0 {
		return DefaultMaxSpin
	}
	return c.MaxSpin
}

// spinRcv runs the pre-block spin prefix on the reply queue: BSLS's
// fixed budget, or BSA's controller-tuned budget.
func (c *PoolClient) spinRcv() {
	if c.Alg == BSA {
		if c.Tuner == nil {
			c.Tuner = NewTuner(TunerConfig{})
		}
		adaptiveSpin(c.Rcv, c.A, c.Tuner, c.M, c.Obs)
		return
	}
	spinPollObs(c.Rcv, c.A, c.maxSpin(), c.M, c.Obs)
}

// Lag reports how many replies are still owed for cancelled sends
// (diagnostics and tests).
func (c *PoolClient) Lag() int { return c.lag }

// Send performs a synchronous exchange with the worker pool. On
// shutdown it returns the OpShutdown marker message.
func (c *PoolClient) Send(m Msg) Msg {
	m.Client = c.ID
	for c.lag > 0 {
		if stale := c.recvReply(); stale.Op == OpShutdown {
			return stale
		}
		c.lag--
	}
	if c.M != nil {
		defer c.M.MsgsSent.Add(1)
	}
	if !c.Obs.Enabled() {
		return c.dispatchSend(m)
	}
	c.Obs.Note(obs.EvSend, int64(m.Seq))
	t0 := time.Now()
	ans := c.dispatchSend(m)
	c.Obs.RTT(time.Since(t0))
	c.Obs.Note(obs.EvRecv, int64(ans.Seq))
	return ans
}

// dispatchSend routes a request through the configured protocol.
func (c *PoolClient) dispatchSend(m Msg) Msg {
	if c.Alg == BSS {
		if !busySpinUntil(c.A, c.Srv, func() bool { return c.Srv.TryEnqueue(m) }) {
			return ShutdownMsg()
		}
		return c.recvReply()
	}
	if !enqueueOrSleepObs(c.Srv, c.A, m, c.Obs) {
		return ShutdownMsg()
	}
	poolWake(c.Srv, c.A)
	if c.Alg == BSWY {
		c.A.BusyWait()
	}
	return c.recvReply()
}

// SendCtx is Send with deadline/cancellation support (see
// Client.SendCtx for the error contract).
func (c *PoolClient) SendCtx(ctx context.Context, m Msg) (Msg, error) {
	m.Client = c.ID
	for c.lag > 0 {
		if _, err := c.recvReplyCtx(ctx); err != nil {
			return Msg{}, err
		}
		c.lag--
	}
	var t0 time.Time
	obsOn := c.Obs.Enabled()
	if obsOn {
		c.Obs.Note(obs.EvSend, int64(m.Seq))
		t0 = time.Now()
	}
	if c.Alg == BSS {
		if err := spinEnqueueCtx(ctx, c.A, c.Srv, m); err != nil {
			return Msg{}, err
		}
	} else {
		if err := enqueueOrSleepCtxObs(ctx, c.Srv, c.A, m, c.M, nil, c.Obs); err != nil {
			return Msg{}, err
		}
		poolWake(c.Srv, c.A)
		if c.Alg == BSWY {
			c.A.BusyWait()
		}
	}
	c.lag++
	ans, err := c.recvReplyCtx(ctx)
	if err != nil {
		return Msg{}, err
	}
	c.lag--
	if obsOn {
		c.Obs.RTT(time.Since(t0))
		c.Obs.Note(obs.EvRecv, int64(ans.Seq))
	}
	if c.M != nil {
		c.M.MsgsSent.Add(1)
	}
	return ans, nil
}

// recvReply is the per-protocol blocking reply dequeue.
func (c *PoolClient) recvReply() Msg {
	switch c.Alg {
	case BSS:
		var ans Msg
		if !busySpinUntil(c.A, c.Rcv, func() bool {
			var ok bool
			ans, ok = c.Rcv.TryDequeue()
			return ok
		}) {
			return ShutdownMsg()
		}
		return ans
	case BSW:
		return consumerWait(c.Rcv, c.A, nil)
	case BSWY:
		return consumerWait(c.Rcv, c.A, c.A.BusyWait)
	case BSLS, BSA:
		c.spinRcv()
		return consumerWait(c.Rcv, c.A, c.A.BusyWait)
	}
	panic(ErrUnknownAlgorithm)
}

// recvReplyCtx is the per-protocol cancellable reply dequeue.
func (c *PoolClient) recvReplyCtx(ctx context.Context) (Msg, error) {
	switch c.Alg {
	case BSS:
		return spinDequeueCtx(ctx, c.A, c.Rcv)
	case BSW:
		return consumerWaitCtx(ctx, c.Rcv, c.A, nil)
	case BSWY:
		return consumerWaitCtx(ctx, c.Rcv, c.A, c.A.BusyWait)
	case BSLS, BSA:
		c.spinRcv()
		return consumerWaitCtx(ctx, c.Rcv, c.A, c.A.BusyWait)
	}
	return Msg{}, ErrUnknownAlgorithm
}
