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

	// pending counts requests received and not yet replied to — the
	// double-reply audit consulted by ReplyCtx.
	pending int
}

// Receive returns the connection's next request, or the OpShutdown
// marker message once the system is shut down and the queue drained. It
// is ReceiveCtx under context.Background().
func (h *DuplexHandler) Receive() Msg { return plainMsg(h.ReceiveCtx(context.Background())) }

// ReceiveCtx is Receive with deadline/cancellation support. Its
// protocol leg is the Server's, with a plain yield as BSWY's "let the
// client run".
func (h *DuplexHandler) ReceiveCtx(ctx context.Context) (Msg, error) {
	m, err := receiveLeg(ctx, h.Alg, h.MaxSpin, &h.Tuner, h.Rcv, h.A, h.M, h.Obs, h.A.Yield)
	if err != nil {
		return Msg{}, err
	}
	if h.M != nil {
		h.M.MsgsReceived.Add(1)
	}
	h.pending++
	return m, nil
}

// Reply sends the response on the connection: ReplyCtx under
// context.Background() without the double-reply audit. A reply the
// queue refused (shutdown) is dropped.
func (h *DuplexHandler) Reply(m Msg) { _ = h.reply(context.Background(), m) }

// ReplyCtx is Reply with deadline/cancellation support and the
// double-reply audit: replying with no request outstanding returns
// ErrDoubleReply.
func (h *DuplexHandler) ReplyCtx(ctx context.Context, m Msg) error {
	if h.pending <= 0 {
		return ErrDoubleReply
	}
	return h.reply(ctx, m)
}

// reply enqueues m on the connection, settles the audit and wakes the
// client.
func (h *DuplexHandler) reply(ctx context.Context, m Msg) error {
	if err := enqueueCtx(ctx, h.Alg, h.Snd, h.A, m, h.M, nil, h.Obs); err != nil {
		return err
	}
	if h.pending > 0 {
		h.pending--
	}
	if h.Alg != BSS {
		wake(h.Snd, h.A)
	}
	return nil
}

// ServeConn runs the echo loop for one connection until the client
// disconnects (or the system shuts down), returning the number of data
// requests served. It is ServeConnCtx under context.Background().
func (h *DuplexHandler) ServeConn(work func(*Msg)) (served int64) {
	served, _ = h.ServeConnCtx(context.Background(), work)
	return served
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
