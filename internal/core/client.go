package core

import (
	"context"
	"time"

	"ulipc/internal/metrics"
	"ulipc/internal/obs"
)

// Handoff targets understood by Actor.Handoff, mirroring the paper's
// proposed system call interface (Section 6).
const (
	HandoffSelf = -1 // same semantics as yield
	HandoffAny  = -2 // deschedule caller; run any other ready process
)

// Client is the client side of a Send/Receive/Reply connection: it
// enqueues requests on the server's receive queue and dequeues responses
// from its own reply queue.
//
// A handle is owned by a single goroutine. Send blocks until the reply
// arrives (or the system shuts down); SendCtx additionally honours the
// context's deadline/cancellation. After a cancelled SendCtx the reply
// is still owed by the server — the handle tracks that lag and drains
// the stale replies (in order, before enqueueing anything new) at the
// start of the next Send/SendCtx, so late replies are never
// misattributed to a newer request.
type Client struct {
	ID      int32     // reply-channel number carried in every request
	Alg     Algorithm // sleep/wake-up protocol
	MaxSpin int       // BSLS MAX_SPIN (DefaultMaxSpin if zero)
	Tuner   *Tuner    // BSA spin-budget controller (lazily built if nil)
	Srv     Port      // enqueue endpoint of the server's receive queue
	Rcv     Port      // dequeue endpoint of this client's reply queue
	A       Actor
	M       *metrics.Proc // optional spin-loop statistics
	Obs     obs.Hook      // optional phase histograms + flight recorder

	// Blocks is the payload slab arena (nil when the system was built
	// without one); Owner is the lease tag this endpoint leases blocks
	// under — unique per endpoint so a sweeper can attribute leaked
	// leases after a crash. See payload.go.
	Blocks BlockStore
	Owner  uint32

	// UseHandoff enables the Section 6 extension: hand-off hints replace
	// plain busy_wait/yield on the critical path. HandoffTarget is the
	// server's pid.
	UseHandoff    bool
	HandoffTarget int

	// HighWater enables bounded admission on the *Ctx send paths: when
	// positive and the request port reports a depth at or above it, a
	// send is rejected with ErrOverload instead of enqueued. Budget
	// bounds the full-queue retry naps on the same paths (nil or zero =
	// unbounded retry). See overload.go.
	HighWater int
	Budget    *RetryBudget

	// lag counts replies still owed for requests whose SendCtx was
	// cancelled after the request had been enqueued. disconnected is
	// set once a disconnect handshake completes. Both are single-owner
	// (the handle's goroutine), so they need no atomics.
	lag          int
	disconnected bool
}

func (c *Client) maxSpin() int {
	if c.MaxSpin <= 0 {
		return DefaultMaxSpin
	}
	return c.MaxSpin
}

// spinRcv runs the pre-block spin prefix on the reply queue: BSLS's
// fixed budget, or BSA's controller-tuned budget with feedback.
func (c *Client) spinRcv() {
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
func (c *Client) Lag() int { return c.lag }

// tryHandoff is the "try to handoff" hint: the handoff syscall when
// enabled, otherwise the portable busy_wait (yield on a uniprocessor,
// delay loop on a multiprocessor).
func (c *Client) tryHandoff() {
	if c.M != nil {
		c.M.BusyWaits.Add(1)
	}
	if c.UseHandoff {
		c.A.Handoff(c.HandoffTarget)
		return
	}
	c.A.BusyWait()
}

// Send performs a synchronous request/response exchange using the
// configured protocol and returns the server's reply. If the system is
// shut down underneath the exchange, Send returns the OpShutdown
// marker message instead of blocking forever (use SendCtx for an
// error-returning surface).
func (c *Client) Send(m Msg) Msg {
	m.Client = c.ID
	for c.lag > 0 {
		stale := c.recvReply()
		if stale.Op == OpShutdown {
			return stale
		}
		// A stale reply may carry a payload lease nobody will resolve:
		// claim-free it so cancelled exchanges cannot leak blocks.
		dropPayload(c.Blocks, c.Owner, stale)
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
func (c *Client) dispatchSend(m Msg) Msg {
	switch c.Alg {
	case BSS:
		return c.sendBSS(m)
	case BSW:
		return c.sendBSW(m)
	case BSWY:
		return c.sendBSWY(m)
	case BSLS, BSA:
		return c.sendBSLS(m)
	}
	panic(ErrUnknownAlgorithm)
}

// SendCtx is Send with deadline/cancellation support. It returns
// ctx.Err() if the context ends first, ErrShutdown if the system is
// shut down, ErrDisconnected after a completed disconnect handshake,
// and ErrNotCancellable if the binding's Actor cannot park cancellably.
// When cancellation and the reply race, the reply wins: a message that
// already arrived is returned rather than discarded.
func (c *Client) SendCtx(ctx context.Context, m Msg) (Msg, error) {
	ans, _, err := c.sendCtx(ctx, m)
	return ans, err
}

// sendCtx is SendCtx that also reports whether this call enqueued m:
// on error, a request that never reached the queue is still the
// caller's, while one that did is owed a reply (c.lag).
func (c *Client) sendCtx(ctx context.Context, m Msg) (Msg, bool, error) {
	if c.disconnected {
		return Msg{}, false, ErrDisconnected
	}
	m.Client = c.ID
	for c.lag > 0 {
		stale, err := c.recvReplyCtx(ctx)
		if err != nil {
			return Msg{}, false, err
		}
		dropPayload(c.Blocks, c.Owner, stale)
		c.lag--
	}
	if err := c.admit(); err != nil {
		return Msg{}, false, err
	}
	var t0 time.Time
	obsOn := c.Obs.Enabled()
	if obsOn {
		c.Obs.Note(obs.EvSend, int64(m.Seq))
		t0 = time.Now()
	}
	ans, err := c.exchangeCtx(ctx, m)
	if err != nil {
		// The drain above left nothing owed, so a reply owed now is
		// this request's.
		return Msg{}, c.lag > 0, err
	}
	if obsOn {
		c.Obs.RTT(time.Since(t0))
		c.Obs.Note(obs.EvRecv, int64(ans.Seq))
	}
	if m.Op == OpDisconnect {
		c.disconnected = true
	}
	if c.M != nil {
		c.M.MsgsSent.Add(1)
	}
	return ans, true, nil
}

// exchangeCtx enqueues the request, wakes the server and awaits the
// reply, all under ctx. Once the request is enqueued, a failed wait
// leaves one reply owed (c.lag).
func (c *Client) exchangeCtx(ctx context.Context, m Msg) (Msg, error) {
	switch c.Alg {
	case BSS:
		if err := spinEnqueueCtx(ctx, c.A, c.Srv, m); err != nil {
			return Msg{}, err
		}
		c.lag++
		ans, err := spinDequeueCtx(ctx, c.A, c.Rcv)
		if err == nil {
			c.lag--
		}
		return ans, err
	case BSW, BSWY, BSLS, BSA:
		if err := enqueueOrSleepCtxObs(ctx, c.Srv, c.A, m, c.M, c.Budget, c.Obs); err != nil {
			return Msg{}, err
		}
		c.lag++
		if c.Alg == BSWY {
			if !c.Srv.TASAwake() {
				c.A.V(c.Srv.Sem())
				c.tryHandoff()
			}
		} else {
			wakeConsumer(c.Srv, c.A)
		}
		ans, err := c.recvReplyCtx(ctx)
		if err == nil {
			c.lag--
		}
		return ans, err
	}
	return Msg{}, ErrUnknownAlgorithm
}

// sendBSS is Figure 1: busy-wait on both the full and the empty
// condition.
func (c *Client) sendBSS(m Msg) Msg {
	if !busySpinUntil(c.A, c.Srv, func() bool { return c.Srv.TryEnqueue(m) }) {
		return ShutdownMsg()
	}
	var ans Msg
	if !busySpinUntil(c.A, c.Rcv, func() bool {
		var ok bool
		ans, ok = c.Rcv.TryDequeue()
		return ok
	}) {
		return ShutdownMsg()
	}
	return ans
}

// sendBSW is Figure 5: wake the server if its awake flag is clear, then
// sleep on the reply semaphore via the raced-checked consumer wait.
func (c *Client) sendBSW(m Msg) Msg {
	if !enqueueOrSleepObs(c.Srv, c.A, m, c.Obs) {
		return ShutdownMsg()
	}
	wakeConsumer(c.Srv, c.A)
	return consumerWait(c.Rcv, c.A, nil)
}

// sendBSWY is Figure 7: BSW plus busy_wait calls that suggest hand-off
// scheduling — one right after waking the server ("and let it run") and
// one at the top of each wait iteration ("try to handoff").
func (c *Client) sendBSWY(m Msg) Msg {
	if !enqueueOrSleepObs(c.Srv, c.A, m, c.Obs) {
		return ShutdownMsg()
	}
	if !c.Srv.TASAwake() {
		c.A.V(c.Srv.Sem())
		c.tryHandoff()
	}
	return consumerWait(c.Rcv, c.A, c.tryHandoff)
}

// sendBSLS is Figure 9: poll the reply queue up to MAX_SPIN times before
// entering the blocking path. BSA shares the shape — only the spin
// budget differs (live controller instead of the MAX_SPIN constant).
func (c *Client) sendBSLS(m Msg) Msg {
	if !enqueueOrSleepObs(c.Srv, c.A, m, c.Obs) {
		return ShutdownMsg()
	}
	wakeConsumer(c.Srv, c.A)
	c.spinRcv()
	return consumerWait(c.Rcv, c.A, c.tryHandoff)
}

// SendAsync enqueues a request and wakes the server without waiting for
// a reply — the asynchronous IPC mode the paper's introduction motivates
// (a client can enqueue multiple requests and the server can drain them
// all without any kernel involvement). On shutdown the request is
// silently dropped (use SendAsyncCtx for an error).
func (c *Client) SendAsync(m Msg) {
	m.Client = c.ID
	if !enqueueOrSleepObs(c.Srv, c.A, m, c.Obs) {
		return
	}
	if c.Alg != BSS {
		wakeConsumer(c.Srv, c.A)
	}
	if c.M != nil {
		c.M.MsgsSent.Add(1)
	}
}

// SendAsyncCtx is SendAsync with deadline/cancellation support. With
// admission configured it rejects with ErrOverload before enqueueing
// (the request is simply not sent; nothing is owed).
func (c *Client) SendAsyncCtx(ctx context.Context, m Msg) error {
	if c.disconnected {
		return ErrDisconnected
	}
	m.Client = c.ID
	if err := c.admit(); err != nil {
		return err
	}
	if c.Alg == BSS {
		if err := spinEnqueueCtx(ctx, c.A, c.Srv, m); err != nil {
			return err
		}
	} else {
		if err := enqueueOrSleepCtxObs(ctx, c.Srv, c.A, m, c.M, c.Budget, c.Obs); err != nil {
			return err
		}
		wakeConsumer(c.Srv, c.A)
	}
	if c.M != nil {
		c.M.MsgsSent.Add(1)
	}
	return nil
}

// recvReply is the per-protocol blocking reply dequeue (no metrics).
func (c *Client) recvReply() Msg {
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
		return consumerWait(c.Rcv, c.A, c.tryHandoff)
	case BSLS, BSA:
		c.spinRcv()
		return consumerWait(c.Rcv, c.A, c.tryHandoff)
	}
	panic(ErrUnknownAlgorithm)
}

// recvReplyCtx is the per-protocol cancellable reply dequeue.
func (c *Client) recvReplyCtx(ctx context.Context) (Msg, error) {
	switch c.Alg {
	case BSS:
		return spinDequeueCtx(ctx, c.A, c.Rcv)
	case BSW:
		return consumerWaitCtx(ctx, c.Rcv, c.A, nil)
	case BSWY:
		return consumerWaitCtx(ctx, c.Rcv, c.A, c.tryHandoff)
	case BSLS, BSA:
		c.spinRcv()
		return consumerWaitCtx(ctx, c.Rcv, c.A, c.tryHandoff)
	}
	return Msg{}, ErrUnknownAlgorithm
}

// RecvReply collects one reply for a previous SendAsync, blocking
// according to the configured protocol. On shutdown it returns the
// OpShutdown marker message.
func (c *Client) RecvReply() Msg { return c.recvReply() }

// RecvReplyCtx collects one reply for a previous SendAsyncCtx, honouring
// the context's deadline/cancellation.
func (c *Client) RecvReplyCtx(ctx context.Context) (Msg, error) {
	return c.recvReplyCtx(ctx)
}
