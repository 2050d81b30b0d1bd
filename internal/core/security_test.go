package core

import "testing"

// The paper's Section 1 security note: "Servers can protect themselves
// from clients by careful access to the shared memory queues." A hostile
// or corrupted client controls every field of the messages it enqueues —
// in particular the reply-channel number — and must not be able to crash
// or wedge the server.

func TestServerDropsOutOfRangeReplyChannel(t *testing.T) {
	h := newServerHarness(BSW, 2, 0)
	// Replies to invalid channels are silently dropped.
	h.srv.Reply(-1, Msg{Op: OpEcho})
	h.srv.Reply(2, Msg{Op: OpEcho})
	h.srv.Reply(1<<30, Msg{Op: OpEcho})
	for i, q := range h.replies {
		if len(q.msgs) != 0 {
			t.Fatalf("client %d received a stray reply", i)
		}
	}
}

func TestServeSurvivesHostileClientField(t *testing.T) {
	h := newServerHarness(BSW, 1, 0)
	script := []Msg{
		{Op: OpConnect, MsgMeta: MsgMeta{Client: 0}},
		{Op: OpEcho, MsgMeta: MsgMeta{Client: 99}},      // forged reply channel
		{Op: OpEcho, MsgMeta: MsgMeta{Client: -7}},      // negative reply channel
		{Op: OpWork, MsgMeta: MsgMeta{Client: 1 << 20}}, // far out of range
		{Op: OpShutdown, MsgMeta: MsgMeta{Client: -1}},  // forged shutdown marker
		{Op: OpEcho, MsgMeta: MsgMeta{Client: 0}},       // honest request
		{Op: OpDisconnect, MsgMeta: MsgMeta{Client: 0}},
	}
	i := 0
	h.a.onP = func(id SemID) {
		if i < len(script) {
			h.push(script[i])
			i++
		}
		h.a.sems[0]++
	}
	served := h.srv.Serve(nil)
	// Only the honest echo counts; the forged requests are dropped
	// before any reply-channel access.
	if served != 1 {
		t.Fatalf("served = %d, want 1", served)
	}
	if len(h.replies[0].msgs) != 3 { // connect + echo + disconnect
		t.Fatalf("replies = %d, want 3", len(h.replies[0].msgs))
	}
}

func TestValidClient(t *testing.T) {
	h := newServerHarness(BSW, 3, 0)
	for _, tc := range []struct {
		client int32
		want   bool
	}{{-1, false}, {0, true}, {2, true}, {3, false}, {1 << 30, false}} {
		if got := h.srv.ValidClient(tc.client); got != tc.want {
			t.Errorf("ValidClient(%d) = %v, want %v", tc.client, got, tc.want)
		}
	}
}

func TestServeDropsForgedDisconnect(t *testing.T) {
	// A forged disconnect on an invalid channel must not decrement the
	// connection count and end the server early.
	h := newServerHarness(BSW, 1, 0)
	script := []Msg{
		{Op: OpConnect, MsgMeta: MsgMeta{Client: 0}},
		{Op: OpDisconnect, MsgMeta: MsgMeta{Client: 5}}, // forged
		{Op: OpEcho, MsgMeta: MsgMeta{Client: 0}},
		{Op: OpDisconnect, MsgMeta: MsgMeta{Client: 0}},
	}
	i := 0
	h.a.onP = func(id SemID) {
		if i < len(script) {
			h.push(script[i])
			i++
		}
		h.a.sems[0]++
	}
	served := h.srv.Serve(nil)
	if served != 1 {
		t.Fatalf("served = %d, want 1 (forged disconnect must not end Serve early)", served)
	}
}
