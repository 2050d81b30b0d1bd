package core

import (
	"context"

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
// from its own reply queue. One handle serves every server
// architecture. Srv may be the shared receive queue of a single-threaded
// server or shard group, the client-to-server half of a full-duplex
// connection to a per-client DuplexHandler, or the shared queue of a
// worker pool; the port's ClaimWake decides how its consumer is woken.
//
// A handle is owned by a single goroutine. SendCtx blocks until the
// reply arrives, the system shuts down, or the context ends. After a
// cancelled SendCtx the reply is still owed by the server — the handle
// tracks that lag and drains the stale replies (in order, before
// enqueueing anything new) at the start of the next send, so late
// replies are never misattributed to a newer request. Pool workers may
// retire cancelled requests out of order, but the reply queue still
// receives exactly one reply per enqueued request, so draining by count
// is sufficient.
type Client struct {
	ID      int32     // reply-channel number carried in every request
	Alg     Algorithm // sleep/wake-up protocol
	MaxSpin int       // BSLS MAX_SPIN (DefaultMaxSpin if zero)
	Tuner   *Tuner    // BSA spin-budget controller (lazily built if nil)
	Srv     SendPort  // enqueue endpoint of the server's receive queue
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

	// HighWater enables bounded admission on the send paths: when
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

// Lag reports how many replies are still owed for cancelled sends
// (diagnostics and tests).
func (c *Client) Lag() int { return c.lag }

// hint is the client's "try to handoff" (see legHint): the handoff
// syscall when enabled, otherwise the portable busy_wait (yield on a
// uniprocessor, delay loop on a multiprocessor).
func (c *Client) hint() legHint {
	return legHint{client: true, count: true, handoff: c.UseHandoff, target: c.HandoffTarget}
}

// tryHandoff gives the hint once, after a BSWY request wake.
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

// Send is SendCtx under context.Background(), its errors mapped by
// plainMsg: if the system is shut down underneath the exchange, Send
// returns the OpShutdown marker message instead of blocking forever.
func (c *Client) Send(m Msg) Msg { return plainMsg(c.SendCtx(context.Background(), m)) }

// SendCtx performs a synchronous request/response exchange using the
// configured protocol and returns the server's reply. It returns
// ctx.Err() if the context ends first, ErrShutdown if the system is
// shut down, ErrDisconnected after a completed disconnect handshake,
// and ErrOverload when admission rejects the request. When
// cancellation and the reply race, the reply wins: a message that
// already arrived is returned rather than discarded.
func (c *Client) SendCtx(ctx context.Context, m Msg) (Msg, error) {
	ans, _, err := c.sendCtx(ctx, m)
	return ans, err
}

// sendCtx is SendCtx that also reports whether this call enqueued m:
// on error, a request that never reached the queue is still the
// caller's, while one that did is owed a reply (c.lag). The wake is a
// Grant, not a V: the client blocks on the reply next, so the binding
// may run the server at once. BSWY follows a wake with a hand-off hint,
// Figure 7's busy_wait "and let it run"; a send that woke nobody has
// nobody to hand off to. The reply wait is receiveLeg, called from here
// so that its yields and parks sit three frames below the verb.
func (c *Client) sendCtx(ctx context.Context, m Msg) (Msg, bool, error) {
	if c.disconnected {
		return Msg{}, false, ErrDisconnected
	}
	m.Client = c.ID
	for c.lag > 0 {
		stale, err := c.RecvReplyCtx(ctx)
		if err != nil {
			return Msg{}, false, err
		}
		DropPayload(c.Blocks, c.Owner, stale)
		c.lag--
	}
	if err := c.admit(m.Op); err != nil {
		return Msg{}, false, err
	}
	obsOn := c.Obs.Enabled()
	if obsOn {
		c.Obs.Note(obs.EvSend, int64(m.Seq))
	}
	t0 := c.Obs.Stamp()
	if !ValidAlgorithm(c.Alg) {
		return Msg{}, false, ErrUnknownAlgorithm
	}
	if err := enqueueCtx(ctx, c.Alg, c.Srv, c.A, m, c.M, c.Budget, c.Obs); err != nil {
		return Msg{}, false, err
	}
	c.lag++
	if c.Alg != BSS && c.Srv.ClaimWake() {
		c.A.Grant(c.Srv.Sem())
		if c.Alg == BSWY {
			c.tryHandoff()
		}
	}
	ans, err := receiveLeg(ctx, c.Alg, c.MaxSpin, &c.Tuner, c.Rcv, c.A, c.M, c.Obs, c.hint())
	if err != nil {
		return Msg{}, true, err // the reply stays owed (c.lag)
	}
	c.lag--
	if obsOn {
		c.Obs.RTT(obs.Since(t0))
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

// SendAsyncCtx enqueues a request and wakes the server without waiting
// for a reply — the asynchronous IPC mode the paper's introduction
// motivates (a client can enqueue multiple requests and the server can
// drain them all without any kernel involvement); RecvReplyCtx collects
// the replies. With admission configured it rejects with ErrOverload
// before enqueueing (the request is simply not sent; nothing is owed).
func (c *Client) SendAsyncCtx(ctx context.Context, m Msg) error {
	if c.disconnected {
		return ErrDisconnected
	}
	m.Client = c.ID
	if err := c.admit(m.Op); err != nil {
		return err
	}
	if err := enqueueCtx(ctx, c.Alg, c.Srv, c.A, m, c.M, c.Budget, c.Obs); err != nil {
		return err
	}
	if c.Alg != BSS {
		wake(c.Srv, c.A)
	}
	if c.M != nil {
		c.M.MsgsSent.Add(1)
	}
	return nil
}

// RecvReplyCtx collects one reply for a previous SendAsyncCtx, blocking
// according to the configured protocol: the client's receive leg.
func (c *Client) RecvReplyCtx(ctx context.Context) (Msg, error) {
	return receiveLeg(ctx, c.Alg, c.MaxSpin, &c.Tuner, c.Rcv, c.A, c.M, c.Obs, c.hint())
}
