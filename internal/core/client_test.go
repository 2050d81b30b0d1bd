package core

import (
	"context"
	"testing"
)

// harness wires a client against fake ports with a scripted "server"
// that runs inside the actor hooks.
type harness struct {
	srvQ *fakePort // server receive queue (client enqueues here)
	rcvQ *fakePort // client reply queue
	a    *fakeActor
	cl   *Client
}

func newHarness(alg Algorithm, maxSpin int) *harness {
	h := &harness{
		srvQ: newFakePort(0, 16),
		rcvQ: newFakePort(1, 16),
		a:    newFakeActor(2),
	}
	h.cl = &Client{
		ID: 3, Alg: alg, MaxSpin: maxSpin,
		Srv: h.srvQ, Rcv: h.rcvQ, A: h.a,
	}
	return h
}

// echoOnce makes the scripted server consume the pending request and
// enqueue the echo reply.
func (h *harness) echoOnce() {
	if m, ok := h.srvQ.TryDequeue(); ok {
		h.rcvQ.msgs = append(h.rcvQ.msgs, m)
	}
}

func TestClientSendStampsReplyChannel(t *testing.T) {
	for _, alg := range Algorithms() {
		h := newHarness(alg, 4)
		h.srvQ.awake = true // server spinning: no V needed
		h.a.onBusy = h.echoOnce
		h.a.onYield = h.echoOnce
		h.a.onP = func(id SemID) { h.echoOnce(); h.a.sems[id]++ }
		ans := h.cl.Send(Msg{Op: OpEcho, Seq: 11, Val: 2.5})
		if ans.Client != 3 {
			t.Errorf("%s: reply channel = %d, want 3 (stamped by Send)", alg, ans.Client)
		}
		if ans.Seq != 11 || ans.Val != 2.5 {
			t.Errorf("%s: reply = %+v", alg, ans)
		}
	}
}

func TestClientBSSNeverUsesSemaphores(t *testing.T) {
	h := newHarness(BSS, 0)
	h.a.onBusy = h.echoOnce
	h.cl.Send(Msg{Op: OpEcho})
	if h.a.sems[0] != 0 || h.a.sems[1] != 0 || h.a.blockedAt != 0 {
		t.Fatal("BSS must not touch semaphores")
	}
	if h.srvQ.tasCalls != 0 || h.rcvQ.tasCalls != 0 {
		t.Fatal("BSS must not touch awake flags")
	}
}

func TestClientBSWWakesSleepingServer(t *testing.T) {
	h := newHarness(BSW, 0)
	h.srvQ.awake = false // server is asleep
	// Reply preloaded so the client need not block.
	h.rcvQ.msgs = append(h.rcvQ.msgs, Msg{Val: 1})
	h.cl.Send(Msg{Op: OpEcho})
	if h.a.sems[0] != 1 {
		t.Fatalf("server sem = %d, want 1 (client must V the sleeping server)", h.a.sems[0])
	}
	if !h.srvQ.awake {
		t.Fatal("client's TAS must set the server awake flag")
	}
}

func TestClientBSWSkipsWakeWhenServerAwake(t *testing.T) {
	h := newHarness(BSW, 0)
	h.srvQ.awake = true
	h.rcvQ.msgs = append(h.rcvQ.msgs, Msg{Val: 1})
	h.cl.Send(Msg{Op: OpEcho})
	if h.a.sems[0] != 0 {
		t.Fatalf("server sem = %d, want 0 (awake server needs no V)", h.a.sems[0])
	}
}

func TestClientBSWYBusyWaitsAfterWake(t *testing.T) {
	h := newHarness(BSWY, 0)
	h.srvQ.awake = false
	h.a.onBusy = h.echoOnce // the busy_wait "lets the server run"
	h.cl.Send(Msg{Op: OpEcho})
	if h.a.busyWaits == 0 {
		t.Fatal("BSWY must busy_wait after waking the server")
	}
	if h.a.blockedAt != 0 {
		t.Fatal("hand-off hint should have avoided the block")
	}
}

func TestClientBSLSSpinsBeforeBlocking(t *testing.T) {
	h := newHarness(BSLS, 8)
	h.srvQ.awake = true
	polls := 0
	h.a.onBusy = func() {
		polls++
		if polls == 3 {
			h.echoOnce()
		}
	}
	h.cl.Send(Msg{Op: OpEcho})
	if polls != 3 {
		t.Fatalf("polls = %d, want 3 (reply after third poll)", polls)
	}
	if h.a.blockedAt != 0 {
		t.Fatal("successful spin must not block")
	}
}

func TestClientBSLSFallsThroughToBlock(t *testing.T) {
	h := newHarness(BSLS, 2)
	h.srvQ.awake = true
	h.a.onP = func(id SemID) { h.echoOnce(); h.a.sems[id]++ }
	h.cl.Send(Msg{Op: OpEcho})
	if h.a.blockedAt != 1 {
		t.Fatalf("blockedAt = %d, want 1 (MAX_SPIN exhausted)", h.a.blockedAt)
	}
	if h.a.polls < 2 {
		t.Fatalf("polls = %d, want >= MAX_SPIN", h.a.polls)
	}
}

func TestClientDefaultMaxSpin(t *testing.T) {
	h := newHarness(BSLS, 0) // zero -> DefaultMaxSpin
	h.srvQ.awake = true
	h.a.onP = func(id SemID) { h.echoOnce(); h.a.sems[id]++ }
	h.cl.Send(Msg{Op: OpEcho})
	if h.a.polls != DefaultMaxSpin {
		t.Fatalf("polls = %d, want DefaultMaxSpin (%d)", h.a.polls, DefaultMaxSpin)
	}
}

func TestClientHandoffTargetsServer(t *testing.T) {
	h := newHarness(BSWY, 0)
	h.cl.UseHandoff = true
	h.cl.HandoffTarget = 42
	h.srvQ.awake = false
	// Handoff hook: server runs.
	done := false
	h.a.onP = func(id SemID) { h.echoOnce(); h.a.sems[id]++ }
	h.cl.Send(Msg{Op: OpEcho})
	_ = done
	if len(h.a.handoffs) == 0 {
		t.Fatal("UseHandoff must issue handoff calls")
	}
	for _, target := range h.a.handoffs {
		if target != 42 {
			t.Fatalf("handoff target = %d, want 42", target)
		}
	}
}

func TestClientAsyncSendDoesNotWait(t *testing.T) {
	h := newHarness(BSW, 0)
	h.srvQ.awake = false
	ctx := context.Background()
	for seq := int32(1); seq <= 2; seq++ {
		if err := h.cl.SendAsyncCtx(ctx, Msg{Op: OpWork, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.srvQ.msgs) != 2 {
		t.Fatalf("queued = %d, want 2", len(h.srvQ.msgs))
	}
	// Only the first async send finds the flag clear and Vs.
	if h.a.sems[0] != 1 {
		t.Fatalf("server sem = %d, want 1", h.a.sems[0])
	}
	// Echo both and collect.
	h.echoOnce()
	h.echoOnce()
	r1, err1 := h.cl.RecvReplyCtx(ctx)
	r2, err2 := h.cl.RecvReplyCtx(ctx)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Seq != 1 || r2.Seq != 2 {
		t.Fatalf("replies out of order: %d, %d", r1.Seq, r2.Seq)
	}
}

func TestClientAsyncBSSDoesNotWake(t *testing.T) {
	h := newHarness(BSS, 0)
	if err := h.cl.SendAsyncCtx(context.Background(), Msg{Op: OpWork}); err != nil {
		t.Fatal(err)
	}
	if h.a.sems[0] != 0 {
		t.Fatal("BSS async send must not V")
	}
}

func TestAlgorithmNames(t *testing.T) {
	for _, alg := range Algorithms() {
		got, err := AlgorithmByName(alg.String())
		if err != nil || got != alg {
			t.Errorf("round trip %s: %v, %v", alg, got, err)
		}
	}
	if _, err := AlgorithmByName("nope"); err == nil {
		t.Error("bad name accepted")
	}
	if s := Algorithm(99).String(); s == "" {
		t.Error("unknown algorithm must stringify")
	}
}
