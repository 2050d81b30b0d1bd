package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"ulipc/internal/metrics"
	"ulipc/internal/obs"
)

// ctxFakeActor overrides fakeActor's cancellable waits so the
// context-threaded protocol paths can be driven deterministically: the
// hooks run in place of a real park/sleep.
type ctxFakeActor struct {
	*fakeActor
	onPCtx     func(SemID) error // nil: fall back to non-blocking P semantics
	onSleepCtx func(int) error   // nil: count and succeed
	sleptFor   []int
}

func (a *ctxFakeActor) PCtx(ctx context.Context, id SemID) error {
	if a.onPCtx != nil {
		return a.onPCtx(id)
	}
	if a.sems[id] > 0 {
		a.sems[id]--
		return nil
	}
	return ctx.Err()
}

func (a *ctxFakeActor) SleepCtx(ctx context.Context, s int) error {
	a.sleptFor = append(a.sleptFor, s)
	if a.onSleepCtx != nil {
		return a.onSleepCtx(s)
	}
	return ctx.Err()
}

func TestSendCtxDisconnected(t *testing.T) {
	rcv := newFakePort(1, 4)
	c := &Client{
		ID:  0,
		Alg: BSW,
		Srv: newFakePort(0, 4),
		Rcv: rcv,
		A:   newFakeActor(2),
	}
	// Pre-queue the disconnect ack so the handshake completes on the
	// fast path.
	rcv.TryEnqueue(Msg{Op: OpDisconnect})
	if _, err := c.SendCtx(context.Background(), Msg{Op: OpDisconnect}); err != nil {
		t.Fatalf("disconnect handshake: %v", err)
	}
	if _, err := c.SendCtx(context.Background(), Msg{Op: OpEcho}); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("send after disconnect = %v, want ErrDisconnected", err)
	}
}

func TestReplyCtxDoubleReply(t *testing.T) {
	rcv := newFakePort(0, 4)
	s := &Server{
		Alg:     BSW,
		Rcv:     rcv,
		Replies: []Port{newFakePort(1, 4)},
		A:       newFakeActor(2),
	}
	// No request received yet: any reply is a double reply.
	if err := s.ReplyCtx(context.Background(), 0, Msg{}); !errors.Is(err, ErrDoubleReply) {
		t.Fatalf("reply before receive = %v, want ErrDoubleReply", err)
	}
	rcv.TryEnqueue(Msg{Op: OpEcho, MsgMeta: MsgMeta{Client: 0}})
	if _, err := s.ReceiveCtx(context.Background()); err != nil {
		t.Fatalf("receive: %v", err)
	}
	if err := s.ReplyCtx(context.Background(), 0, Msg{Op: OpEcho}); err != nil {
		t.Fatalf("first reply: %v", err)
	}
	if err := s.ReplyCtx(context.Background(), 0, Msg{Op: OpEcho}); !errors.Is(err, ErrDoubleReply) {
		t.Fatalf("second reply = %v, want ErrDoubleReply", err)
	}
	// Out-of-range channels are the same misuse class.
	if err := s.ReplyCtx(context.Background(), 9, Msg{}); !errors.Is(err, ErrDoubleReply) {
		t.Fatalf("out-of-range reply = %v, want ErrDoubleReply", err)
	}
}

// A reply the queue refuses must not settle the audit: the request
// stays outstanding, so the retried reply goes out and only a reply
// beyond it is a double reply.
func TestDuplexReplyRefusedKeepsAudit(t *testing.T) {
	ctx := context.Background()
	rcv := newFakePort(0, 4)
	snd := &closablePort{fakePort: *newFakePort(1, 4), refusing: true}
	h := &DuplexHandler{Alg: BSW, Rcv: rcv, Snd: snd, A: newFakeActor(2)}
	rcv.TryEnqueue(Msg{Op: OpEcho})
	if _, err := h.ReceiveCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if err := h.ReplyCtx(ctx, Msg{Op: OpEcho}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("ReplyCtx on a refusing queue = %v, want ErrShutdown", err)
	}
	snd.refusing = false
	if err := h.ReplyCtx(ctx, Msg{Op: OpEcho}); err != nil {
		t.Fatalf("ReplyCtx after a refused reply = %v, want it delivered", err)
	}
	if err := h.ReplyCtx(ctx, Msg{Op: OpEcho}); !errors.Is(err, ErrDoubleReply) {
		t.Fatalf("second delivered reply = %v, want ErrDoubleReply", err)
	}
}

func TestEnqueueOrSleepCtxBackoff(t *testing.T) {
	q := newFakePort(0, 1)
	q.TryEnqueue(Msg{}) // fill
	base := newFakeActor(1)
	a := &ctxFakeActor{fakeActor: base}
	a.onSleepCtx = func(int) error {
		if len(a.sleptFor) == 3 {
			q.msgs = q.msgs[:0] // consumer finally drained the queue
		}
		return nil
	}
	pm := &metrics.Proc{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := enqueueCtx(ctx, BSW, q, a, Msg{Val: 3}, pm, nil, obs.Hook{}); err != nil {
		t.Fatal(err)
	}
	// Under a context that can end, the nap ceiling doubles per round
	// (1, 2, 4 "seconds") with uniform jitter below it — see backoff in
	// overload.go. Exact naps depend on the jitter stream; the ceiling
	// schedule does not.
	if len(a.sleptFor) != 3 {
		t.Fatalf("sleeps = %v, want 3 rounds", a.sleptFor)
	}
	for i, s := range a.sleptFor {
		ceil := 1 << i
		if s < 1 || s > ceil {
			t.Fatalf("sleep %d = %d, want within [1,%d]", i, s, ceil)
		}
	}
	if got := pm.Retries.Load(); got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}
	if len(q.msgs) != 1 || q.msgs[0].Val != 3 {
		t.Fatalf("queue = %+v", q.msgs)
	}
}

func TestEnqueueOrSleepCtxDeadline(t *testing.T) {
	q := newFakePort(0, 1)
	q.TryEnqueue(Msg{}) // stays full
	a := &ctxFakeActor{fakeActor: newFakeActor(1)}
	ctx, cancel := context.WithCancel(context.Background())
	a.onSleepCtx = func(int) error {
		cancel() // deadline fires during the nap
		return ctx.Err()
	}
	pm := &metrics.Proc{}
	err := enqueueCtx(ctx, BSW, q, a, Msg{}, pm, nil, obs.Hook{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(q.msgs) != 1 {
		t.Fatalf("cancelled retry must not enqueue: queue = %+v", q.msgs)
	}
}

// TestConsumerWaitCtxCancelDrainsRacingWake is the Figure 4 awake-flag
// race under cancellation, step by step: the consumer is parked, a
// producer enqueues + sets the flag + Vs, and the cancellation fires
// before the grant is observed. The cancelled wait must drain the
// producer's token and take the message — success beats cancellation,
// and the semaphore count returns to zero.
func TestConsumerWaitCtxCancelDrainsRacingWake(t *testing.T) {
	q := newFakePort(0, 4)
	base := newFakeActor(1)
	a := &ctxFakeActor{fakeActor: base}
	a.onPCtx = func(id SemID) error {
		// While "parked": the producer enqueues, TASes the flag (clear →
		// set, so it Vs), and then the wait is cancelled having consumed
		// no token.
		q.msgs = append(q.msgs, Msg{Val: 11})
		if !q.TASAwake() {
			base.sems[id]++
		}
		return context.Canceled
	}
	m, err := receiveLeg(context.Background(), BSW, 0, nil, q, a, nil, obs.Hook{}, legHint{})
	if err != nil {
		t.Fatalf("racing wake must win over cancellation: %v", err)
	}
	if m.Val != 11 {
		t.Fatalf("got %+v", m)
	}
	if base.sems[0] != 0 {
		t.Fatalf("producer's token not drained: sem = %d", base.sems[0])
	}
}

// TestConsumerWaitCtxCancelSuppressesFutureWake is the complementary
// interleaving: the wait is cancelled with no producer in sight. The
// consumer must restore the awake flag so a later producer does not V
// into the void (which would leak a token).
func TestConsumerWaitCtxCancelSuppressesFutureWake(t *testing.T) {
	q := newFakePort(0, 4)
	base := newFakeActor(1)
	a := &ctxFakeActor{fakeActor: base}
	a.onPCtx = func(SemID) error { return context.DeadlineExceeded }
	_, err := receiveLeg(context.Background(), BSW, 0, nil, q, a, nil, obs.Hook{}, legHint{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if !q.awake {
		t.Fatal("cancelled wait must restore the awake flag")
	}
	// The next producer now sees the flag set: no V, no leaked token.
	if wake(q, base) {
		t.Fatal("producer must not V after the flag was restored")
	}
	if base.sems[0] != 0 {
		t.Fatalf("sem = %d, want 0", base.sems[0])
	}
}

func TestSendCtxPreCancelled(t *testing.T) {
	c := &Client{
		ID:  0,
		Alg: BSLS,
		Srv: newFakePort(0, 4),
		Rcv: newFakePort(1, 4),
		A:   &ctxFakeActor{fakeActor: newFakeActor(2)},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.SendCtx(ctx, Msg{Op: OpEcho}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// ctxErr answers exactly what ctx.Err() answers, for contexts that never
// end, before and after a cancel, past a deadline, and through a value
// layer over a cancelled parent.
func TestCtxErrMatchesErr(t *testing.T) {
	type key struct{}
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	check := func(name string, ctx context.Context) {
		t.Helper()
		if got, want := ctxErr(ctx), ctx.Err(); got != want {
			t.Errorf("%s: ctxErr = %v, ctx.Err() = %v", name, got, want)
		}
	}
	check("Background", context.Background())
	check("WithCancel before cancel", cancellable)
	check("WithValue over a live parent", context.WithValue(cancellable, key{}, 1))
	cancel()
	check("WithCancel after cancel", cancellable)
	check("WithDeadline passed", expired)
	check("WithValue over a cancelled parent", context.WithValue(cancellable, key{}, 1))
	if ctxErr(cancellable) == nil || ctxErr(expired) == nil {
		t.Error("ended contexts report no error")
	}
}
