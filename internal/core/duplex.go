package core

import (
	"context"

	"ulipc/internal/metrics"
	"ulipc/internal/obs"
)

// This file implements the alternative server architecture Section 2.1
// sketches: "an alternative architecture might be to have a server
// thread per client, but that would require two queues per client to
// implement the full-duplex virtual connection." Each client gets a
// dedicated server handler and a pair of unidirectional queues; the
// client end is a plain Client whose Srv is the client-to-server queue,
// and both endpoints use the same sleep/wake-up protocols as the
// shared-queue architecture.

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

	// audit counts requests received and not yet replied to; the
	// connection's one client is its entry 0.
	audit replyAudit
}

// ReceiveCtx returns the connection's next request; ErrShutdown once
// the system is shut down and the queue drained. Its protocol leg is the
// Server's, with a plain uncounted yield as BSWY's "let the client run".
func (h *DuplexHandler) ReceiveCtx(ctx context.Context) (Msg, error) {
	m, err := receiveLeg(ctx, h.Alg, h.MaxSpin, &h.Tuner, h.Rcv, h.A, h.M, h.Obs, legHint{})
	if err != nil {
		return Msg{}, err
	}
	if h.M != nil {
		h.M.MsgsReceived.Add(1)
	}
	h.audit.received(0, 1)
	return m, nil
}

// ReplyCtx sends the response on the connection and wakes the client
// if needed; replying with no request outstanding returns
// ErrDoubleReply.
func (h *DuplexHandler) ReplyCtx(ctx context.Context, m Msg) error {
	if h.audit.outstanding(0) <= 0 {
		return ErrDoubleReply
	}
	if err := enqueueCtx(ctx, h.Alg, h.Snd, h.A, m, h.M, nil, h.Obs); err != nil {
		return err
	}
	h.audit.replied(0, 1)
	if h.Alg != BSS {
		wake(h.Snd, h.A)
	}
	return nil
}

// ServeConnCtx runs the echo loop for one connection until the client
// disconnects (or the system shuts down), returning the number of data
// requests served, and ctx.Err() when the context ends first. Replies go
// out under context.Background(); one the queue refused (shutdown) is
// dropped.
func (h *DuplexHandler) ServeConnCtx(ctx context.Context, work func(*Msg)) (served int64, err error) {
	reply := func(m Msg) { _ = h.ReplyCtx(context.Background(), m) }
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
			reply(m)
			return served, nil
		case OpWork:
			if work != nil {
				w := m // see Server.ServeCtx
				work(&w)
				m = w
			}
			served++
			reply(m)
		default:
			if m.Op != OpConnect {
				served++
			}
			reply(m)
		}
	}
}
