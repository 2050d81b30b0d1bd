package core

import (
	"context"
	"testing"
)

// The synchronous send's request wake is the one Grant in core: the
// client blocks on its reply next, so the binding may run the server
// at once. It grants exactly when it claims the wake, and never Vs.
func TestExchangeGrantsWhenItClaimsWake(t *testing.T) {
	for _, alg := range []Algorithm{BSW, BSWY, BSLS, BSA} {
		for _, asleep := range []bool{false, true} {
			h := newHarness(alg, 2)
			h.srvQ.awake = !asleep
			h.rcvQ.msgs = append(h.rcvQ.msgs, Msg{Val: 1}) // the client need not block
			h.cl.Send(Msg{Op: OpEcho})
			want := 0
			if asleep {
				want = 1
			}
			if len(h.a.grants) != want || len(h.a.vs) != 0 {
				t.Errorf("%s asleep=%v: grants %v, Vs %v; want %d grant(s), no V", alg, asleep, h.a.grants, h.a.vs, want)
			}
			if asleep && len(h.a.grants) == 1 && h.a.grants[0] != h.srvQ.sem {
				t.Errorf("%s: granted sem %d, want the server's %d", alg, h.a.grants[0], h.srvQ.sem)
			}
			if h.a.sems[0] != want {
				t.Errorf("%s asleep=%v: server sem = %d, want %d", alg, asleep, h.a.sems[0], want)
			}
		}
	}
	h := newHarness(BSS, 0)
	h.srvQ.awake = false
	h.a.onBusy = h.echoOnce
	h.cl.Send(Msg{Op: OpEcho})
	if len(h.a.grants) != 0 || len(h.a.vs) != 0 {
		t.Errorf("BSS: grants %v, Vs %v; want neither", h.a.grants, h.a.vs)
	}
}

// BSWY's busy_wait "and let it run" still follows the wake: the grant
// is issued first, then the hint.
func TestClientBSWYHintFollowsGrant(t *testing.T) {
	h := newHarness(BSWY, 0)
	h.srvQ.awake = false
	grantsAtHint := -1
	h.a.onBusy = func() {
		if grantsAtHint < 0 {
			grantsAtHint = len(h.a.grants)
		}
		h.echoOnce()
	}
	h.cl.Send(Msg{Op: OpEcho})
	if grantsAtHint != 1 {
		t.Fatalf("grants before the hint = %d, want 1", grantsAtHint)
	}
	if h.a.busyWaits != 1 || h.a.blockedAt != 0 {
		t.Fatalf("busy-waits = %d, blocks = %d; want one hint, no block", h.a.busyWaits, h.a.blockedAt)
	}
}

// Every wake whose caller does not block on a reply next keeps the
// plain V: the asynchronous and batch sends, the server's, a pool
// worker's and a duplex handler's replies, and the pool's shutdown
// broadcast.
func TestOtherWakesStayV(t *testing.T) {
	check := func(name string, a *fakeActor, want ...SemID) {
		t.Helper()
		if len(a.grants) != 0 {
			t.Errorf("%s: grants %v, want none", name, a.grants)
		}
		for _, id := range want {
			found := false
			for _, v := range a.vs {
				found = found || v == id
			}
			if !found {
				t.Errorf("%s: Vs %v, want one on sem %d", name, a.vs, id)
			}
		}
	}

	h := newHarness(BSW, 0)
	h.srvQ.awake = false
	if err := h.cl.SendAsyncCtx(context.Background(), Msg{Op: OpWork}); err != nil {
		t.Fatal(err)
	}
	check("SendAsyncCtx", h.a, 0)

	h = newHarness(BSW, 0)
	h.srvQ.awake = false
	h.rcvQ.msgs = append(h.rcvQ.msgs, Msg{Val: 1})
	if _, err := h.cl.SendBatchCtx(context.Background(), []Msg{{Op: OpEcho}}); err != nil {
		t.Fatal(err)
	}
	check("SendBatchCtx", h.a, 0)

	sh := newServerHarness(BSW, 1, 0)
	sh.replies[0].awake = false
	sh.push(Msg{Op: OpEcho})
	sh.srv.Receive()
	sh.srv.Reply(0, Msg{Op: OpEcho})
	check("Server.Reply", sh.a, 1)

	q := newFakePoolPort(0, 8)
	reply := newFakePort(1, 8)
	reply.awake = false
	a := newFakeActor(2)
	w := &PoolWorker{Alg: BSW, Rcv: q, Replies: []Port{reply}, A: a, C: &PoolCoordinator{Workers: 2}}
	q.TryEnqueue(Msg{Op: OpConnect, MsgMeta: MsgMeta{Client: 0}})
	q.TryEnqueue(Msg{Op: OpDisconnect, MsgMeta: MsgMeta{Client: 0}})
	if err := w.ServeCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	check("PoolWorker", a, 1, 0)

	snd := newFakePort(1, 4)
	snd.awake = false
	a = newFakeActor(2)
	rcv := newFakePort(0, 4)
	rcv.TryEnqueue(Msg{Op: OpEcho})
	d := &DuplexHandler{Alg: BSW, Rcv: rcv, Snd: snd, A: a}
	if _, err := d.ReceiveCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.ReplyCtx(context.Background(), Msg{Op: OpEcho}); err != nil {
		t.Fatal(err)
	}
	check("DuplexHandler.ReplyCtx", a, 1)
}
