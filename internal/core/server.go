package core

import (
	"context"

	"ulipc/internal/metrics"
	"ulipc/internal/obs"
)

// Server is the server side of the Send/Receive/Reply interface: a
// single-threaded loop that dequeues requests from one receive queue and
// enqueues responses on per-client reply queues (the architecture used
// for the paper's evaluation — one receive queue is adequate for multiple
// clients as long as each request carries its reply-channel number).
type Server struct {
	Alg     Algorithm
	MaxSpin int
	Tuner   *Tuner // BSA spin-budget controller (lazily built if nil)
	Rcv     Port   // dequeue endpoint of the receive queue
	Replies []Port // enqueue endpoints of the per-client reply queues
	A       Actor
	M       *metrics.Proc // optional spin-loop statistics
	Obs     obs.Hook      // optional phase histograms + flight recorder

	// Blocks is the payload slab arena (nil when the system was built
	// without one); Owner is the lease tag the server leases blocks
	// under. See payload.go.
	Blocks BlockStore
	Owner  uint32

	// UseHandoff makes the server's scheduling hints use
	// handoff(PID_ANY) instead of plain yield (Section 6).
	UseHandoff bool

	// Shed, when non-nil, enables deadline-aware shedding: messages
	// whose deadline has already passed are dropped at dequeue (payload
	// lease claim-freed, sender woken with at most one compensating V
	// per shed batch) instead of served late. See overload.go.
	Shed *ShedPolicy

	// Throttle, when positive, caps the number of simultaneously awake
	// (unparked) clients — the Section 5 "future work" extension that
	// breaks the BSLS positive-feedback collapse on multiprocessors.
	// When more than Throttle clients are active, a client that blocks
	// is "parked": its reply is enqueued but the wake-up V is deferred,
	// so the remaining active clients see short queues and stop falling
	// through their spin loops. Parked clients are re-admitted FIFO, one
	// at a time with pacing, plus an age-based force, so no client
	// starves.
	Throttle int

	deferred  []deferredWake
	receives  int64
	lastAdmit int64
	connected int // maintained by Serve (or SetConnected) for the throttle

	audit replyAudit // requests received and not yet replied to, per client

	// Batch-reply scratch: pending-wake marks and the distinct-client
	// list (every vectored reply path), and the current same-client
	// reply run (ReplyBatchCtx; the batch serve loop replies
	// from its receive buffer), reused across calls so the vectored
	// reply path stays allocation-free.
	pendWake []bool
	touched  []int32
	run      []Msg
}

// SetConnected tells the throttle how many clients are currently
// connected. Serve maintains this automatically; callers driving
// Receive/Reply directly must keep it updated for Throttle to be safe.
func (s *Server) SetConnected(n int) { s.connected = n }

type deferredWake struct {
	client int32
	at     int64 // receive count when deferred (starvation guard)
}

// hint is the server's BSWY let-run (see legHint): handoff(PID_ANY)
// when enabled, else a plain yield, counted as a busy-wait.
func (s *Server) hint() legHint {
	return legHint{count: true, handoff: s.UseHandoff, target: HandoffAny}
}

// replyAudit is the outstanding-request audit behind ErrDoubleReply,
// shared by every server endpoint: per client, the requests received
// and not yet replied to. An endpoint handle is single-goroutine, so
// plain ints suffice; the counts are allocated on the first receive, and
// a client number out of range has nothing outstanding.
type replyAudit struct{ owed []int32 }

// counts returns the per-client counts, sized for n clients on first use.
func (a *replyAudit) counts(n int) []int32 {
	if a.owed == nil {
		a.owed = make([]int32, n)
	}
	return a.owed
}

// received notes one request from client c of n.
func (a *replyAudit) received(c int32, n int) {
	if o := a.counts(n); uint32(c) < uint32(len(o)) {
		o[c]++
	}
}

// outstanding returns how many of c's requests await a reply.
func (a *replyAudit) outstanding(c int32) int32 {
	if uint32(c) < uint32(len(a.owed)) {
		return a.owed[c]
	}
	return 0
}

// replied settles k replies delivered to c.
func (a *replyAudit) replied(c int32, k int32) {
	if uint32(c) < uint32(len(a.owed)) {
		a.owed[c] = max(a.owed[c]-k, 0)
	}
}

// Receive is ReceiveCtx under context.Background(), its errors mapped
// by plainMsg: once the system is shut down it returns the OpShutdown
// marker message (Client == -1) so a driving loop can exit.
func (s *Server) Receive() Msg { return plainMsg(s.ReceiveCtx(context.Background())) }

// ReceiveCtx returns the next client request, blocking (per the
// configured protocol) while the receive queue is empty. It returns
// ctx.Err() when the context ends first and ErrShutdown once the system
// is shut down and the receive queue has drained.
func (s *Server) ReceiveCtx(ctx context.Context) (Msg, error) {
	for {
		if s.Throttle > 0 && s.connected > 0 && len(s.deferred) >= s.connected {
			// Every connected client is parked: the parked clients are the
			// only possible source of new requests, so admit one now or the
			// system would deadlock.
			s.admitOne()
		}
		m, err := receiveLeg(ctx, s.Alg, s.MaxSpin, &s.Tuner, s.Rcv, s.A, s.M, s.Obs, s.hint())
		if err != nil {
			return Msg{}, err
		}
		if s.M != nil {
			s.M.MsgsReceived.Add(1)
		}
		s.retireWake(m.Client)
		if s.shed(m) {
			continue // already expired: dropped, receive the next one
		}
		s.audit.received(m.Client, len(s.Replies))
		return m, nil
	}
}

// ValidClient reports whether a client-supplied reply-channel number is
// usable. The paper's security note (Section 1) applies: the server must
// protect itself by careful access to the shared queues, and the
// reply-channel number arrives from untrusted client memory.
func (s *Server) ValidClient(client int32) bool {
	return client >= 0 && int(client) < len(s.Replies)
}

// Reply is ReplyCtx under context.Background() that keeps no reply it
// could not deliver: a reply the audit refused (an out-of-range channel
// number from a hostile or corrupted client included) or the queue
// refused (shutdown, a dead client's closed channel) is dropped with its
// payload lease, which would otherwise be stranded with a live owner no
// sweeper walks.
func (s *Server) Reply(client int32, m Msg) {
	if s.ReplyCtx(context.Background(), client, m) != nil {
		DropPayload(s.Blocks, s.Owner, m)
	}
}

// ReplyCtx sends a response to the given client, settles the
// outstanding-request audit and wakes the client if needed. It returns
// ErrDoubleReply when no request from that client is outstanding,
// ErrShutdown once the system is shut down, and ctx.Err() if the
// context ends while the reply queue is full. A reply that failed keeps
// its payload lease with the server. Control-path replies bypass the
// wake throttle: a departing client sends no further requests (its slot
// would never retire) and a connecting client may synchronise with
// other clients before its first request (holding a slot across the
// barrier).
func (s *Server) ReplyCtx(ctx context.Context, client int32, m Msg) error {
	if s.audit.outstanding(client) <= 0 {
		return ErrDoubleReply
	}
	q := s.Replies[client]
	if err := enqueueCtx(ctx, s.Alg, q, s.A, m, s.M, nil, s.Obs); err != nil {
		return err
	}
	s.audit.replied(client, 1)
	if s.Alg == BSS {
		return nil
	}
	if isControl(m.Op) {
		wake(q, s.A)
		return nil
	}
	s.wakeClient(client)
	return nil
}

// wakeClient wakes the client's consumer, honouring the wake throttle.
func (s *Server) wakeClient(client int32) {
	q := s.Replies[client]
	if !q.ClaimWake() {
		return // client is awake (or another wake is already pending)
	}
	if s.Throttle > 0 && len(s.Replies)-len(s.deferred)-1 >= s.Throttle {
		// Too many clients are active: park this one. The awake flag is
		// already set (so no other producer will duplicate the wake) but
		// the V is owed; it is issued when the client is re-admitted.
		s.deferred = append(s.deferred, deferredWake{client: client, at: s.receives})
		return
	}
	s.A.V(q.Sem())
}

// retireWake paces the re-admission of parked clients.
func (s *Server) retireWake(client int32) {
	if s.Throttle <= 0 {
		return
	}
	s.receives++
	if len(s.deferred) == 0 {
		return
	}
	// Admission pacing: re-admit parked clients one at a time, at most
	// one per admitInterval receives. Bursting them all back in would
	// immediately re-create the overload that parked them. The age check
	// is the starvation guard: FIFO order plus a forced admission after
	// a bounded number of receives means every parked client is
	// eventually woken.
	interval := int64(2 * len(s.Replies))
	aged := s.receives-s.deferred[0].at > 4*interval
	if aged || s.receives-s.lastAdmit >= interval {
		s.admitOne()
	}
}

// admitOne wakes the longest-parked client.
func (s *Server) admitOne() {
	next := s.deferred[0].client
	s.deferred = s.deferred[1:]
	s.lastAdmit = s.receives
	s.A.V(s.Replies[next].Sem())
}

// Serve is ServeCtx under context.Background().
func (s *Server) Serve(work func(*Msg)) (served int64) {
	served, _ = s.ServeCtx(context.Background(), work)
	return served
}

// ServeCtx runs the canonical echo loop of the paper's evaluation:
// receive requests and echo the argument back until every connected
// client has disconnected — or the system is shut down, which ends the
// loop cleanly after in-flight requests have been drained. work is
// invoked for OpWork requests to model server-side request processing;
// it may be nil. Replies go out under context.Background(), through
// Reply. It returns (served, nil) when every connected client has
// disconnected or the system shut down gracefully, and (served,
// ctx.Err()) when the context ends first.
func (s *Server) ServeCtx(ctx context.Context, work func(*Msg)) (served int64, err error) {
	connected := 0
	everConnected := false
	for {
		m, err := s.ReceiveCtx(ctx)
		if err == ErrShutdown {
			return served, nil
		}
		if err != nil {
			return served, err
		}
		if !s.ValidClient(m.Client) {
			// Hostile/corrupted request: no usable reply channel. Any
			// payload lease it carries is returned (Claim rejects refs
			// that don't decode, so a corrupted Ref is just dropped).
			DropPayload(s.Blocks, s.Owner, m)
			continue
		}
		switch m.Op {
		case OpConnect:
			connected++
			s.connected = connected
			everConnected = true
			s.Reply(m.Client, m)
		case OpDisconnect:
			connected--
			s.connected = connected
			s.Reply(m.Client, m)
			if everConnected && connected == 0 {
				return served, nil
			}
		case OpWork:
			if work != nil {
				// A copy local to this branch: work(&m) would move every
				// request of the loop to the heap.
				w := m
				work(&w)
				m = w
			}
			served++
			s.Reply(m.Client, m)
		default: // OpEcho
			served++
			s.Reply(m.Client, m)
		}
	}
}
