package core

import (
	"context"
	"errors"
	"testing"
)

// replyLog records, across every reply port of a server, the order in
// which replies were enqueued.
type replyLog []Msg

// logPort is a reply port with a vectored enqueue. Every enqueue,
// scalar or vectored, lands in the shared log; batchCalls counts the
// vectored calls that carried at least one message.
type logPort struct {
	*fakePort
	log        *replyLog
	batchCalls int
}

func (p *logPort) TryEnqueue(m Msg) bool {
	if !p.fakePort.TryEnqueue(m) {
		return false
	}
	*p.log = append(*p.log, m)
	return true
}

func (p *logPort) TryEnqueueBatch(ms []Msg) int {
	n := 0
	for _, m := range ms {
		if !p.TryEnqueue(m) {
			break
		}
		n++
	}
	if n > 0 {
		p.batchCalls++
	}
	return n
}

// logHarness is newServerHarness with logPort reply channels.
func logHarness(clients int) (*serverHarness, []*logPort, *replyLog) {
	h := newServerHarness(BSW, clients, 0)
	log := new(replyLog)
	ports := make([]*logPort, clients)
	for i := range ports {
		ports[i] = &logPort{fakePort: h.replies[i], log: log}
		h.srv.Replies[i] = ports[i]
	}
	return h, ports, log
}

// batchServes runs a test against the batch serve loop.
var batchServes = []struct {
	name  string
	serve func(s *Server, work func(*Msg), batch int) (int64, error)
}{
	{"ServeBatchCtx", func(s *Server, work func(*Msg), batch int) (int64, error) {
		return s.ServeBatchCtx(context.Background(), work, batch)
	}},
}

func connectMsg(c int32) Msg    { return Msg{Op: OpConnect, MsgMeta: MsgMeta{Client: c}} }
func disconnectMsg(c int32) Msg { return Msg{Op: OpDisconnect, MsgMeta: MsgMeta{Client: c}} }

// A request with no usable reply channel — an out-of-range client, or a
// forged shutdown marker on an open port — is dropped by the batch serve
// loops with its payload lease, as scalar Serve drops it; the valid
// request beside it in the burst is still answered.
func TestServeBatchDropsUnrepliablePayload(t *testing.T) {
	for _, sv := range batchServes {
		t.Run(sv.name, func(t *testing.T) {
			h := newServerHarness(BSW, 1, 0)
			store := newFakeStore()
			h.srv.Blocks, h.srv.Owner = store, 1
			invalid, _ := payloadMsg(t, store, 99)
			forged, _ := payloadMsg(t, store, -1)
			forged.Op = OpShutdown
			h.push(connectMsg(0))
			h.push(invalid)
			h.push(forged)
			h.push(Msg{Op: OpEcho, Seq: 7, MsgMeta: MsgMeta{Client: 0}})
			h.push(disconnectMsg(0))
			served, err := sv.serve(h.srv, nil, 8)
			if err != nil || served != 1 {
				t.Fatalf("served %d, %v; want the one echo", served, err)
			}
			if n := store.outstanding(); n != 0 {
				t.Errorf("%d payload blocks stranded by the dropped requests", n)
			}
			var echoed bool
			for _, m := range h.replies[0].msgs {
				echoed = echoed || m.Op == OpEcho && m.Seq == 7
			}
			if !echoed {
				t.Errorf("echo not answered: replies %+v", h.replies[0].msgs)
			}
		})
	}
}

// A work callback that re-addresses a request to another valid client
// does not get that client a reply it never asked for: the double-reply
// audit caps each run at what the client is owed, as ReplyBatchCtx does,
// and the excess is dropped with its payload lease, as scalar ServeCtx
// drops it through Reply.
func TestServeBatchReaddressedReplyAudited(t *testing.T) {
	h := newServerHarness(BSW, 2, 0)
	store := newFakeStore()
	h.srv.Blocks, h.srv.Owner = store, 1
	req, _ := payloadMsg(t, store, 0)
	req.Op = OpWork
	for _, m := range []Msg{connectMsg(0), connectMsg(1), req, disconnectMsg(0), disconnectMsg(1)} {
		h.push(m)
	}
	served, err := h.srv.ServeBatchCtx(context.Background(), func(m *Msg) { m.Client = 1 }, 8)
	if err != nil || served != 1 {
		t.Fatalf("served %d, %v; want the one work request", served, err)
	}
	for _, m := range h.replies[1].msgs {
		if !isControl(m.Op) {
			t.Errorf("client 1 got a reply to client 0's request: %+v", m)
		}
	}
	if n := store.outstanding(); n != 0 {
		t.Errorf("%d payload blocks stranded by the unauditable reply", n)
	}
}

// The batch serve loops reply straight out of their receive buffer: one
// burst interleaving two clients' work requests (0, 0, 1, 0, 1) around a
// connect is answered with one vectored enqueue per same-client run,
// each client sees its replies in the order it sent them with work's
// mutation applied, the control replies leave before any data reply, and
// the outstanding-request audit ends at zero for both clients.
func TestServeBatchRepliesInPlace(t *testing.T) {
	for _, sv := range batchServes {
		t.Run(sv.name, func(t *testing.T) {
			h, ports, log := logHarness(2)
			work := func(c int32, seq int32) Msg {
				return Msg{Op: OpWork, Seq: seq, MsgMeta: MsgMeta{Client: c}}
			}
			for _, m := range []Msg{
				connectMsg(0), work(0, 1), work(0, 2), connectMsg(1), work(1, 3),
				work(0, 4), work(1, 5), disconnectMsg(0), disconnectMsg(1),
			} {
				h.push(m)
			}
			served, err := sv.serve(h.srv, func(m *Msg) { m.Val = float64(10 * m.Seq) }, 16)
			if err != nil || served != 5 {
				t.Fatalf("served %d, %v; want 5", served, err)
			}
			firstData := len(*log)
			for i, m := range *log {
				if m.Op == OpWork && i < firstData {
					firstData = i
				}
				if isControl(m.Op) && i > firstData {
					t.Errorf("control reply %+v held behind a data reply: log %+v", m, *log)
				}
			}
			for c, want := range [][]int32{{1, 2, 4}, {3, 5}} {
				var got []int32
				for _, m := range ports[c].msgs {
					if m.Op != OpWork {
						continue
					}
					if m.Val != float64(10*m.Seq) {
						t.Errorf("client %d seq %d: Val %v, work's mutation lost", c, m.Seq, m.Val)
					}
					got = append(got, m.Seq)
				}
				if len(got) != len(want) {
					t.Fatalf("client %d: data replies %v, want %v", c, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("client %d: data replies %v, want %v", c, got, want)
					}
				}
				if ports[c].batchCalls != 2 {
					t.Errorf("client %d: %d vectored enqueues, want 2 (one per run)", c, ports[c].batchCalls)
				}
				if err := h.srv.ReplyCtx(context.Background(), int32(c), Msg{Op: OpEcho}); !errors.Is(err, ErrDoubleReply) {
					t.Errorf("client %d: ReplyCtx after the burst = %v, want ErrDoubleReply", c, err)
				}
			}
		})
	}
}

// ReplyBatchCtx sends its runs through the same helper: two runs to a
// sleeping client cost it one wake, a connect reply goes out as a
// scalar reply, and the audit is settled per run. A reply to a client
// with nothing outstanding fails the audit — ErrDoubleReply once the
// rest of the batch is out — and its payload lease stays with the
// server.
func TestReplyBatchRuns(t *testing.T) {
	h, ports, _ := logHarness(3)
	store := newFakeStore()
	h.srv.Blocks, h.srv.Owner = store, 1
	for _, c := range []int32{0, 0, 0, 1, 1} {
		h.srv.audit.received(c, len(h.srv.Replies))
	}
	ports[0].awake = false
	stray, _ := payloadMsg(t, store, 2)
	err := h.srv.ReplyBatchCtx(context.Background(), []Reply{
		{0, Msg{Op: OpEcho, Seq: 1}}, {0, Msg{Op: OpEcho, Seq: 2}},
		{2, stray},
		{1, connectMsg(1)}, {1, Msg{Op: OpEcho, Seq: 3}},
		{0, Msg{Op: OpEcho, Seq: 4}},
	})
	if !errors.Is(err, ErrDoubleReply) {
		t.Errorf("ReplyBatchCtx = %v, want ErrDoubleReply for the stray reply", err)
	}
	if len(ports[2].msgs) != 0 {
		t.Errorf("stray reply delivered: %+v", ports[2].msgs)
	}
	if n := store.outstanding(); n != 1 {
		t.Errorf("%d blocks outstanding after the refused reply, want its 1", n)
	}
	DropPayload(store, h.srv.Owner, stray) // the server still holds the lease
	if n := store.outstanding(); n != 0 {
		t.Errorf("%d blocks outstanding after the server dropped the stray reply", n)
	}
	if got := len(ports[0].msgs); got != 3 || ports[0].msgs[2].Seq != 4 {
		t.Errorf("client 0 replies %+v, want seqs 1, 2, 4", ports[0].msgs)
	}
	if got := ports[1].msgs; len(got) != 2 || got[0].Op != OpConnect || got[1].Seq != 3 {
		t.Errorf("client 1 replies %+v, want the connect then seq 3", got)
	}
	if ports[0].batchCalls != 2 || ports[1].batchCalls != 1 {
		t.Errorf("vectored enqueues %d, %d; want 2, 1", ports[0].batchCalls, ports[1].batchCalls)
	}
	if h.a.sems[1] != 1 {
		t.Errorf("sleeping client 0 got %d wakes for two runs, want 1", h.a.sems[1])
	}
	for c := int32(0); c < 2; c++ {
		if err := h.srv.ReplyCtx(context.Background(), c, Msg{}); !errors.Is(err, ErrDoubleReply) {
			t.Errorf("client %d: audit not settled, ReplyCtx = %v", c, err)
		}
	}
}

// With a shed policy configured the drained part of a burst still sheds:
// an expired request queued behind the head is dropped with its lease,
// counted, and the burst comes up one shorter.
func TestReceiveBatchShedsBehindHead(t *testing.T) {
	h, now := shedHarness(t, BSW, 1)
	store := newFakeStore()
	h.srv.Blocks, h.srv.Owner = store, 1
	*now = 100
	expired, _ := payloadMsg(t, store, 0)
	expired.Seq, expired.Val = 2, 50
	h.push(Msg{Op: OpEcho, Seq: 1, Val: 200})
	h.push(expired)
	h.push(Msg{Op: OpEcho, Seq: 3, Val: 200})
	buf := make([]Msg, 8)
	n, err := h.srv.ReceiveBatchCtx(context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || buf[0].Seq != 1 || buf[1].Seq != 3 {
		t.Errorf("burst %+v, want seqs 1 and 3", buf[:n])
	}
	if got := h.srv.M.Sheds.Load(); got != 1 {
		t.Errorf("Sheds = %d, want 1", got)
	}
	if got := store.outstanding(); got != 0 {
		t.Errorf("%d blocks leaked by the shed", got)
	}
}

// With a throttle configured the drained part of a burst still paces
// parked clients back in: the receives it counts re-admit a deferred
// wake even though only the head went through Receive.
func TestReceiveBatchRetiresDeferredWakes(t *testing.T) {
	h := newServerHarness(BSW, 2, 0)
	h.srv.Throttle = 1
	h.srv.deferred = []deferredWake{{client: 1}}
	interval := 2 * len(h.srv.Replies) // retireWake's admission pacing
	for i := 0; i < interval; i++ {
		h.push(Msg{Op: OpEcho, Seq: int32(i)})
	}
	if n, err := h.srv.ReceiveBatchCtx(context.Background(), make([]Msg, interval)); n != interval || err != nil {
		t.Fatalf("burst of %d (%v), want %d", n, err, interval)
	}
	if len(h.srv.deferred) != 0 || h.a.sems[2] != 1 {
		t.Errorf("pending %d, client 1 sem %d: the drained receives did not re-admit the parked client",
			len(h.srv.deferred), h.a.sems[2])
	}
}

// SendBatchCtx on a full request queue takes the same full-queue leg as a
// scalar send: BSS busy-waits (Figure 1), it never naps.
func TestSendBatchBSSBusyWaitsFullQueue(t *testing.T) {
	srv, rcv := newFakePort(0, 1), newFakePort(1, 1)
	srv.TryEnqueue(Msg{}) // full
	a := &ctxFakeActor{fakeActor: newFakeActor(2)}
	a.onBusy = func() { // the server drains the queue and answers
		srv.msgs = srv.msgs[:0]
		rcv.TryEnqueue(Msg{Val: 7})
	}
	a.onSleepCtx = func(int) error { return errors.New("napped on a BSS queue") }
	c := &Client{Alg: BSS, Srv: srv, Rcv: rcv, A: a}
	out, err := c.SendBatchCtx(context.Background(), []Msg{{Val: 7}})
	if err != nil || len(out) != 1 || out[0].Val != 7 {
		t.Fatalf("replies = %+v, %v; want the one echo", out, err)
	}
	if a.busyWaits != 1 {
		t.Fatalf("%d busy-waits, want one", a.busyWaits)
	}
}
