package core

import (
	"context"
	"time"

	"ulipc/internal/metrics"
	"ulipc/internal/obs"
)

// This file implements the alternative server architecture Section 2.1
// sketches: "an alternative architecture might be to have a server
// thread per client, but that would require two queues per client to
// implement the full-duplex virtual connection." Each client gets a
// dedicated server handler and a pair of unidirectional queues; both
// endpoints use the same sleep/wake-up protocols as the shared-queue
// architecture.

// DuplexClient is the client endpoint of a full-duplex virtual
// connection: it enqueues requests on the client-to-server queue and
// waits for responses on the server-to-client queue. Like Client, the
// handle is single-goroutine and tracks the replies owed for cancelled
// SendCtx calls, draining them before the next request goes out.
type DuplexClient struct {
	Alg     Algorithm
	MaxSpin int
	Tuner   *Tuner // BSA spin-budget controller (lazily built if nil)
	Snd     Port   // enqueue endpoint of the client->server queue
	Rcv     Port   // dequeue endpoint of the server->client queue
	A       Actor
	M       *metrics.Proc
	Obs     obs.Hook // optional phase histograms + flight recorder

	lag int
}

// Send performs a synchronous request/response exchange on the
// connection. On shutdown it returns the OpShutdown marker message.
func (c *DuplexClient) Send(m Msg) Msg {
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
func (c *DuplexClient) dispatchSend(m Msg) Msg {
	switch c.Alg {
	case BSS:
		if !busySpinUntil(c.A, c.Snd, func() bool { return c.Snd.TryEnqueue(m) }) {
			return ShutdownMsg()
		}
		return c.recvReply()
	case BSW:
		if !enqueueOrSleepObs(c.Snd, c.A, m, c.Obs) {
			return ShutdownMsg()
		}
		wakeConsumer(c.Snd, c.A)
		return consumerWait(c.Rcv, c.A, nil)
	case BSWY:
		if !enqueueOrSleepObs(c.Snd, c.A, m, c.Obs) {
			return ShutdownMsg()
		}
		if !c.Snd.TASAwake() {
			c.A.V(c.Snd.Sem())
			c.A.BusyWait()
		}
		return consumerWait(c.Rcv, c.A, c.A.BusyWait)
	case BSLS, BSA:
		if !enqueueOrSleepObs(c.Snd, c.A, m, c.Obs) {
			return ShutdownMsg()
		}
		wakeConsumer(c.Snd, c.A)
		c.spinRcv()
		return consumerWait(c.Rcv, c.A, c.A.BusyWait)
	}
	panic(ErrUnknownAlgorithm)
}

// SendCtx is Send with deadline/cancellation support (see
// Client.SendCtx for the error contract).
func (c *DuplexClient) SendCtx(ctx context.Context, m Msg) (Msg, error) {
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
	var err error
	switch c.Alg {
	case BSS:
		err = spinEnqueueCtx(ctx, c.A, c.Snd, m)
	case BSW, BSLS, BSA:
		if err = enqueueOrSleepCtxObs(ctx, c.Snd, c.A, m, c.M, nil, c.Obs); err == nil {
			wakeConsumer(c.Snd, c.A)
		}
	case BSWY:
		if err = enqueueOrSleepCtxObs(ctx, c.Snd, c.A, m, c.M, nil, c.Obs); err == nil {
			if !c.Snd.TASAwake() {
				c.A.V(c.Snd.Sem())
				c.A.BusyWait()
			}
		}
	default:
		return Msg{}, ErrUnknownAlgorithm
	}
	if err != nil {
		return Msg{}, err
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
func (c *DuplexClient) recvReply() Msg {
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
func (c *DuplexClient) recvReplyCtx(ctx context.Context) (Msg, error) {
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

func (c *DuplexClient) maxSpin() int {
	if c.MaxSpin <= 0 {
		return DefaultMaxSpin
	}
	return c.MaxSpin
}

// spinRcv runs the pre-block spin prefix on the reply queue: BSLS's
// fixed budget, or BSA's controller-tuned budget with feedback.
func (c *DuplexClient) spinRcv() {
	if c.Alg == BSA {
		if c.Tuner == nil {
			c.Tuner = NewTuner(TunerConfig{})
		}
		adaptiveSpin(c.Rcv, c.A, c.Tuner, c.M, c.Obs)
		return
	}
	spinPollObs(c.Rcv, c.A, c.maxSpin(), c.M, c.Obs)
}

// DuplexHandler is the server endpoint of one full-duplex connection —
// the body of a per-client server thread.
type DuplexHandler struct {
	Alg     Algorithm
	MaxSpin int
	Tuner   *Tuner // BSA spin-budget controller (lazily built if nil)
	Rcv     Port   // dequeue endpoint of the client->server queue
	Snd     Port   // enqueue endpoint of the server->client queue
	A       Actor
	M       *metrics.Proc
	Obs     obs.Hook // optional phase histograms + flight recorder

	// pending counts requests received and not yet replied to — the
	// double-reply audit consulted by ReplyCtx.
	pending int
}

func (h *DuplexHandler) maxSpin() int {
	if h.MaxSpin <= 0 {
		return DefaultMaxSpin
	}
	return h.MaxSpin
}

// spinRcv runs the pre-block spin prefix on the connection's receive
// queue: BSLS's fixed budget, or BSA's controller-tuned budget.
func (h *DuplexHandler) spinRcv() {
	if h.Alg == BSA {
		if h.Tuner == nil {
			h.Tuner = NewTuner(TunerConfig{})
		}
		adaptiveSpin(h.Rcv, h.A, h.Tuner, h.M, h.Obs)
		return
	}
	spinPollObs(h.Rcv, h.A, h.maxSpin(), h.M, h.Obs)
}

// Receive returns the connection's next request, or the OpShutdown
// marker message once the system is shut down and the queue drained.
func (h *DuplexHandler) Receive() Msg {
	var m Msg
	switch h.Alg {
	case BSS:
		if !busySpinUntil(h.A, h.Rcv, func() bool {
			var ok bool
			m, ok = h.Rcv.TryDequeue()
			return ok
		}) {
			return ShutdownMsg()
		}
	case BSW:
		m = consumerWait(h.Rcv, h.A, nil)
	case BSWY:
		if got, ok := h.Rcv.TryDequeue(); ok {
			m = got
			break
		}
		h.A.Yield()
		m = consumerWait(h.Rcv, h.A, nil)
	case BSLS, BSA:
		h.spinRcv()
		m = consumerWait(h.Rcv, h.A, nil)
	default:
		panic(ErrUnknownAlgorithm)
	}
	if m.Op == OpShutdown && m.Client < 0 && portClosed(h.Rcv) {
		return m
	}
	if h.M != nil {
		h.M.MsgsReceived.Add(1)
	}
	h.pending++
	return m
}

// ReceiveCtx is Receive with deadline/cancellation support.
func (h *DuplexHandler) ReceiveCtx(ctx context.Context) (Msg, error) {
	var m Msg
	var err error
	switch h.Alg {
	case BSS:
		m, err = spinDequeueCtx(ctx, h.A, h.Rcv)
	case BSW:
		m, err = consumerWaitCtx(ctx, h.Rcv, h.A, nil)
	case BSWY:
		if got, ok := h.Rcv.TryDequeue(); ok {
			m = got
			break
		}
		h.A.Yield()
		m, err = consumerWaitCtx(ctx, h.Rcv, h.A, nil)
	case BSLS, BSA:
		h.spinRcv()
		m, err = consumerWaitCtx(ctx, h.Rcv, h.A, nil)
	default:
		return Msg{}, ErrUnknownAlgorithm
	}
	if err != nil {
		return Msg{}, err
	}
	if h.M != nil {
		h.M.MsgsReceived.Add(1)
	}
	h.pending++
	return m, nil
}

// Reply sends the response on the connection.
func (h *DuplexHandler) Reply(m Msg) {
	if h.pending > 0 {
		h.pending--
	}
	if h.Alg == BSS {
		busySpinUntil(h.A, h.Snd, func() bool { return h.Snd.TryEnqueue(m) })
		return
	}
	if !enqueueOrSleepObs(h.Snd, h.A, m, h.Obs) {
		return
	}
	wakeConsumer(h.Snd, h.A)
}

// ReplyCtx is Reply with deadline/cancellation support and the
// double-reply audit: replying with no request outstanding returns
// ErrDoubleReply.
func (h *DuplexHandler) ReplyCtx(ctx context.Context, m Msg) error {
	if h.pending <= 0 {
		return ErrDoubleReply
	}
	if h.Alg == BSS {
		if err := spinEnqueueCtx(ctx, h.A, h.Snd, m); err != nil {
			return err
		}
		h.pending--
		return nil
	}
	if err := enqueueOrSleepCtxObs(ctx, h.Snd, h.A, m, h.M, nil, h.Obs); err != nil {
		return err
	}
	h.pending--
	wakeConsumer(h.Snd, h.A)
	return nil
}

// ServeConn runs the echo loop for one connection until the client
// disconnects (or the system shuts down), returning the number of data
// requests served.
func (h *DuplexHandler) ServeConn(work func(*Msg)) (served int64) {
	for {
		m := h.Receive()
		switch m.Op {
		case OpShutdown:
			if m.Client < 0 {
				return served
			}
			h.Reply(m)
		case OpDisconnect:
			h.Reply(m)
			return served
		case OpWork:
			if work != nil {
				w := m // see Server.Serve
				work(&w)
				m = w
			}
			served++
			h.Reply(m)
		default: // OpConnect, OpEcho
			if m.Op != OpConnect {
				served++
			}
			h.Reply(m)
		}
	}
}

// ServeConnCtx is ServeConn with deadline/cancellation support.
func (h *DuplexHandler) ServeConnCtx(ctx context.Context, work func(*Msg)) (served int64, err error) {
	for {
		m, err := h.ReceiveCtx(ctx)
		if err == ErrShutdown {
			return served, nil
		}
		if err != nil {
			return served, err
		}
		switch m.Op {
		case OpDisconnect:
			h.Reply(m)
			return served, nil
		case OpWork:
			if work != nil {
				w := m // see Server.Serve
				work(&w)
				m = w
			}
			served++
			h.Reply(m)
		default:
			if m.Op != OpConnect {
				served++
			}
			h.Reply(m)
		}
	}
}
