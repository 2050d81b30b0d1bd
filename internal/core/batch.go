package core

import (
	"context"

	"ulipc/internal/obs"
)

// Vectored (batched) variants of Send/Receive/Reply. The scalar
// protocol pays one wake-up per message; these paths move k messages
// per semaphore V — one wake-up, one enqueue burst, k messages — the
// same way AllocN amortises pool CASes. The wake-token accounting is
// unchanged from the scalar Figure 4 protocol: a producer issues at
// most one V per TAS-cleared awake flag regardless of how many
// messages the burst carried, and the consumer's TAS-drain on the
// dequeue success path still retires any redundant token, so batching
// cannot leak or lose wakes (DESIGN.md §10 walks the accounting).
// Underneath the wakes the queues batch too: a burst is published with
// one index store and taken with one lane lock, and the batch serve
// loop replies straight out of its receive buffer, one vectored
// enqueue per same-client run. What is configured per message
// (shedding, throttle pacing) and what checks each message (validity,
// the double-reply audit count) still runs on every message.

// SendBatchCtx sends every message in msgs and returns the replies (in
// arrival order, which under a sharded server is not necessarily send
// order), written over msgs: the result is msgs[:n], so the call
// allocates nothing and the caller refills msgs before the next one.
// One wake-up is issued per enqueue burst, not per message. On an error
// the replies already collected are returned alongside it; replies
// still owed for enqueued requests are tracked as lag and drained by the
// next send on this handle, exactly like a cancelled scalar SendCtx.
func (c *Client) SendBatchCtx(ctx context.Context, msgs []Msg) ([]Msg, error) {
	if c.disconnected {
		return nil, ErrDisconnected
	}
	if len(msgs) == 0 {
		return nil, nil
	}
	for i := range msgs {
		msgs[i].Client = c.ID
	}
	for c.lag > 0 {
		stale, err := c.RecvReplyCtx(ctx)
		if err != nil {
			return nil, err
		}
		DropPayload(c.Blocks, c.Owner, stale) // as in SendCtx
		c.lag--
	}
	if err := c.admit(OpEcho); err != nil { // a batch is admitted as data
		return nil, err
	}
	obsOn := c.Obs.Enabled()
	if obsOn {
		c.Obs.Note(obs.EvSend, int64(msgs[0].Seq))
		c.Obs.Batch(len(msgs))
	}
	t0 := c.Obs.Stamp()
	out := msgs[:0] // replies land only on requests already enqueued
	sent := 0
	var bo backoff
	fail := func(err error) ([]Msg, error) {
		c.lag += sent - len(out)
		if c.M != nil {
			c.M.MsgsSent.Add(int64(sent))
		}
		return out, err
	}
	for sent < len(msgs) {
		if c.Srv.Refusing() {
			return fail(shutdownErr(c.Srv))
		}
		if err := ctxErr(ctx); err != nil {
			return fail(err)
		}
		n := c.Srv.TryEnqueueBatch(msgs[sent:])
		if n > 0 {
			sent += n
			c.Budget.credit()
			bo.reset()
			if c.Alg != BSS {
				wake(c.Srv, c.A)
			}
			continue
		}
		// Request queue full. When the batch is larger than the queues,
		// progress requires consuming replies while requests are still
		// being fed in — collect any that are ready before napping, or a
		// batch of k > cap(request)+cap(reply) would deadlock.
		if c.collect(&out, sent) {
			continue
		}
		if err := bo.wait(ctx, c.Alg, c.Srv, c.A, c.Budget, c.M); err != nil {
			return fail(err)
		}
	}
	for len(out) < sent {
		if c.collect(&out, sent) {
			continue
		}
		m, err := c.RecvReplyCtx(ctx)
		if err != nil {
			return fail(err)
		}
		out = append(out, m)
	}
	if c.M != nil {
		c.M.MsgsSent.Add(int64(sent))
	}
	if obsOn {
		c.Obs.RTT(obs.Since(t0))
		if len(out) > 0 {
			c.Obs.Note(obs.EvRecv, int64(out[len(out)-1].Seq))
		}
	}
	return out, nil
}

// collect appends to *out, up to sent replies in all (over requests
// already enqueued), every reply already queued — one vectored dequeue
// — and reports whether there was any. The blocking receive is left
// for when nothing is queued.
func (c *Client) collect(out *[]Msg, sent int) bool {
	o := *out
	k := c.Rcv.TryDequeueBatch(o[len(o):sent])
	*out = o[:len(o)+k]
	return k > 0
}

// ReceiveBatchCtx receives up to len(buf) requests: one blocking
// ReceiveCtx for the head, then a non-blocking drain of whatever else is
// already queued — the batching a single wake-up pays for. It returns
// the number of messages stored.
func (s *Server) ReceiveBatchCtx(ctx context.Context, buf []Msg) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	m, err := s.ReceiveCtx(ctx)
	if err != nil {
		return 0, err
	}
	buf[0] = m
	n := s.drainInto(buf, 1)
	if s.Obs.Enabled() {
		s.Obs.Batch(n)
	}
	return n, nil
}

// drainInto fills buf[from:] with already-queued requests — one
// vectored dequeue — then applies to each the same per-message
// accounting as ReceiveCtx (count, wake retirement, outstanding-request
// audit, deadline shed), and returns the new length. Shed messages are
// dropped in place, not kept — the burst just comes up shorter. Without
// a throttle or a shed policy, wake retirement and shedding are no-ops,
// so the audit count is all that runs per message.
func (s *Server) drainInto(buf []Msg, from int) int {
	got := s.Rcv.TryDequeueBatch(buf[from:])
	if s.M != nil && got > 0 {
		s.M.MsgsReceived.Add(int64(got))
	}
	if s.Throttle <= 0 && (s.Shed == nil || s.Shed.Deadline == nil) {
		o := s.audit.counts(len(s.Replies))
		for _, m := range buf[from : from+got] {
			if uint32(m.Client) < uint32(len(o)) { // audit.received, inlined
				o[m.Client]++
			}
		}
		return from + got
	}
	n := from
	for _, m := range buf[from : from+got] {
		s.retireWake(m.Client)
		if s.shed(m) {
			continue
		}
		s.audit.received(m.Client, len(s.Replies))
		buf[n] = m
		n++
	}
	return n
}

// Reply pairs a response message with its destination client for
// ReplyBatchCtx.
type Reply struct {
	Client int32
	Msg    Msg
}

// replyRun sends run, consecutive data replies to valid client c, with
// one vectored enqueue; whatever does not fit goes through the
// per-message path. It sends no more replies than c has requests
// outstanding (the double-reply audit), stops at the first reply the
// queue refuses (shutdown, a dead client) or ctx ends on, and returns
// how many it delivered with that error. The delivered replies settle
// c's audit in one step and owe c one wake, which the caller flushes.
func (s *Server) replyRun(ctx context.Context, c int32, run []Msg) (n int, err error) {
	run = run[:min(len(run), int(s.audit.outstanding(c)))]
	q := s.Replies[c]
	if !q.Refusing() && ctxErr(ctx) == nil {
		n = q.TryEnqueueBatch(run)
	}
	for _, m := range run[n:] {
		if err = enqueueCtx(ctx, s.Alg, q, s.A, m, s.M, nil, s.Obs); err != nil {
			break
		}
		n++
	}
	s.audit.replied(c, int32(n))
	if n > 0 && s.Alg != BSS {
		s.oweWake(c)
	}
	return n, err
}

// ReplyBatchCtx enqueues every reply, then issues at most one wake-up
// per distinct destination client — the reply-side half of the
// k-messages-per-V amortisation. Each run of consecutive data replies
// to one client is copied into scratch and sent by replyRun, the helper
// the batch serve loop uses on its receive buffer; a control-path reply
// (connect/disconnect) keeps the scalar reply's immediate,
// throttle-bypassing wake. It carries the ReplyCtx misuse audit:
// replies with no outstanding request (an invalid client number
// included) are skipped and reported as ErrDoubleReply after the rest
// of the batch has been delivered; an enqueue failure (shutdown,
// context) stops the batch, flushes the wakes already owed, and returns
// that error. As in ReplyCtx, a reply that failed keeps its payload
// lease with the server.
func (s *Server) ReplyBatchCtx(ctx context.Context, batch []Reply) error {
	if len(batch) == 0 {
		return nil
	}
	s.growReplyScratch(len(batch))
	var firstErr error
	for i := 0; i < len(batch); {
		c, m := batch[i].Client, batch[i].Msg
		owed := s.audit.outstanding(c)
		if owed <= 0 {
			if firstErr == nil {
				firstErr = ErrDoubleReply
			}
			i++
			continue
		}
		if isControl(m.Op) {
			if err := s.ReplyCtx(ctx, c, m); err != nil {
				s.flushWakes()
				return err
			}
			i++
			continue
		}
		// replyRun caps the run at owed; replies beyond fail the audit.
		run := s.run[:0]
		for ; i < len(batch) && batch[i].Client == c && !isControl(batch[i].Msg.Op); i++ {
			run = append(run, batch[i].Msg)
		}
		if int32(len(run)) > owed && firstErr == nil {
			firstErr = ErrDoubleReply
		}
		if _, err := s.replyRun(ctx, c, run); err != nil {
			s.flushWakes()
			return err
		}
	}
	if s.Obs.Enabled() {
		s.Obs.Batch(len(batch))
	}
	s.flushWakes()
	return firstErr
}

func isControl(op int32) bool { return op == OpConnect || op == OpDisconnect }

// growReplyScratch sizes the Server's batch-reply scratch for a batch
// of n replies; it allocates only when a batch outgrows every earlier
// one, so the vectored reply path stays allocation-free.
func (s *Server) growReplyScratch(n int) {
	if len(s.pendWake) < len(s.Replies) {
		s.pendWake = make([]bool, len(s.Replies))
	}
	if cap(s.run) < n {
		s.run = make([]Msg, 0, n)
	}
}

// oweWake marks client c as owed one wake when the batch is flushed.
func (s *Server) oweWake(c int32) {
	if !s.pendWake[c] {
		s.pendWake[c] = true
		s.touched = append(s.touched, c)
	}
}

// flushWakes issues the wakes owed, one per distinct client.
func (s *Server) flushWakes() {
	for _, c := range s.touched {
		s.pendWake[c] = false
		s.wakeClient(c)
	}
	s.touched = s.touched[:0]
}

// ServeBatchCtx is the vectored ServeCtx loop: ReceiveBatchCtx up to
// batch requests per wake-up, process them, and reply to them straight
// out of the receive buffer with one wake per client. Exit conditions
// match ServeCtx: a graceful shutdown or every connected client having
// disconnected ends the loop with a nil error, a context end returns
// ctx.Err(). Requests already drained when a disconnect empties the
// connection count are still answered before the loop exits.
func (s *Server) ServeBatchCtx(ctx context.Context, work func(*Msg), batch int) (served int64, err error) {
	buf := make([]Msg, max(batch, 1))
	var st serveState
	for {
		n, rerr := s.ReceiveBatchCtx(ctx, buf)
		if rerr == ErrShutdown {
			return st.served, nil
		}
		if rerr != nil || s.serveBurst(buf[:n], work, &st) {
			return st.served, rerr
		}
	}
}

// serveState is what the batch serve loop carries from burst to burst.
type serveState struct {
	served        int64
	connected     int
	everConnected bool
}

// serveBurst serves one received burst and reports whether the loop
// must stop. Per message it drops a request with no usable reply
// channel together with its payload lease (as ServeCtx does), answers
// connect/disconnect at once, and runs work on data requests in place;
// the data requests are compacted to the front of buf and replied to
// from there, one vectored enqueue per same-client run, with the owed
// wakes flushed once for the burst.
func (s *Server) serveBurst(buf []Msg, work func(*Msg), st *serveState) (stop bool) {
	d := 0
	for i := range buf {
		m := &buf[i]
		if !s.ValidClient(m.Client) {
			DropPayload(s.Blocks, s.Owner, *m)
			continue
		}
		switch m.Op {
		case OpConnect:
			st.connected++
			st.everConnected = true
			s.connected = st.connected
			s.Reply(m.Client, *m)
		case OpDisconnect:
			st.connected--
			s.connected = st.connected
			s.Reply(m.Client, *m)
			stop = stop || st.everConnected && st.connected == 0
		default:
			if m.Op == OpWork && work != nil {
				work(m)
			}
			if d != i {
				buf[d] = *m
			}
			d++
		}
	}
	st.served += int64(d)
	s.growReplyScratch(0) // the wake marks: runs reply from buf itself
	for ms := buf[:d]; len(ms) > 0; {
		c, k := ms[0].Client, 1
		if !s.ValidClient(c) || isControl(ms[0].Op) {
			s.Reply(c, ms[0]) // work re-addressed or re-typed it
		} else {
			for k < len(ms) && ms[k].Client == c && !isControl(ms[k].Op) {
				k++
			}
			// What the run did not deliver (refused, or owed no request:
			// work re-addressed it) fails Reply too, which drops its lease.
			n, _ := s.replyRun(context.Background(), c, ms[:k])
			for _, m := range ms[n:k] {
				s.Reply(c, m)
			}
		}
		ms = ms[k:]
	}
	if d > 0 && s.Obs.Enabled() {
		s.Obs.Batch(d)
	}
	s.flushWakes()
	return stop
}
