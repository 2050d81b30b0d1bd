package core

import (
	"fmt"
	"testing"
)

// serverHarness wires a Server against fake ports with scripted clients.
type serverHarness struct {
	rcvQ    *fakePort
	replies []*fakePort
	a       *fakeActor
	srv     *Server
}

func newServerHarness(alg Algorithm, clients, maxSpin int) *serverHarness {
	h := &serverHarness{
		rcvQ: newFakePort(0, 64),
		a:    newFakeActor(clients + 1),
	}
	ports := make([]Port, clients)
	for i := 0; i < clients; i++ {
		p := newFakePort(SemID(i+1), 64)
		h.replies = append(h.replies, p)
		ports[i] = p
	}
	h.srv = &Server{Alg: alg, MaxSpin: maxSpin, Rcv: h.rcvQ, Replies: ports, A: h.a}
	return h
}

func (h *serverHarness) push(m Msg) { h.rcvQ.msgs = append(h.rcvQ.msgs, m) }

// reply answers a request from client c as if the server had received
// it: the audit notes the request, then Reply runs.
func (h *serverHarness) reply(c int32, m Msg) {
	h.srv.audit.received(c, len(h.srv.Replies))
	h.srv.Reply(c, m)
}

func TestServerReceiveReturnsQueued(t *testing.T) {
	for _, alg := range Algorithms() {
		h := newServerHarness(alg, 1, 4)
		h.push(Msg{Op: OpEcho, Seq: 7, MsgMeta: MsgMeta{Client: 0}})
		m := h.srv.Receive()
		if m.Seq != 7 {
			t.Errorf("%s: got %+v", alg, m)
		}
	}
}

func TestServerReplyWakesSleepingClient(t *testing.T) {
	h := newServerHarness(BSW, 2, 0)
	h.replies[1].awake = false
	h.reply(1, Msg{Op: OpEcho})
	if h.a.sems[2] != 1 {
		t.Fatalf("client1 sem = %d, want 1", h.a.sems[2])
	}
	if len(h.replies[1].msgs) != 1 {
		t.Fatal("reply not enqueued")
	}
	// Awake client: no V.
	h.replies[0].awake = true
	h.reply(0, Msg{Op: OpEcho})
	if h.a.sems[1] != 0 {
		t.Fatalf("client0 sem = %d, want 0", h.a.sems[1])
	}
}

func TestServerBSSReplySpinsOnFull(t *testing.T) {
	h := newServerHarness(BSS, 1, 0)
	h.replies[0].capacity = 1
	h.replies[0].msgs = append(h.replies[0].msgs, Msg{}) // full
	drained := false
	h.a.onBusy = func() {
		if !drained {
			h.replies[0].msgs = h.replies[0].msgs[:0]
			drained = true
		}
	}
	h.reply(0, Msg{Seq: 5})
	if !drained || h.replies[0].msgs[0].Seq != 5 {
		t.Fatal("BSS reply must busy-wait through queue-full")
	}
}

func TestServerBSWYYieldsOnceWhenIdle(t *testing.T) {
	h := newServerHarness(BSWY, 1, 0)
	// Empty at first; the yield "lets clients run" and they enqueue.
	h.a.onYield = func() { h.push(Msg{Seq: 3}) }
	m := h.srv.Receive()
	if m.Seq != 3 {
		t.Fatalf("got %+v", m)
	}
	if h.a.yields != 1 {
		t.Fatalf("yields = %d, want 1", h.a.yields)
	}
	if h.a.blockedAt != 0 {
		t.Fatal("should not have blocked")
	}

	// Queue non-empty: no yield at all.
	h.push(Msg{Seq: 4})
	h.srv.Receive()
	if h.a.yields != 1 {
		t.Fatalf("yields = %d after hot receive, want still 1", h.a.yields)
	}
}

func TestServerBSLSSpinsBeforeBlocking(t *testing.T) {
	h := newServerHarness(BSLS, 1, 3)
	polls := 0
	h.a.onBusy = func() {
		polls++
		if polls == 2 {
			h.push(Msg{Seq: 9})
		}
	}
	m := h.srv.Receive()
	if m.Seq != 9 || polls != 2 || h.a.blockedAt != 0 {
		t.Fatalf("m=%+v polls=%d blocked=%d", m, polls, h.a.blockedAt)
	}
}

func TestServerServeEchoLoop(t *testing.T) {
	h := newServerHarness(BSW, 2, 0)
	script := []Msg{
		{Op: OpConnect, MsgMeta: MsgMeta{Client: 0}},
		{Op: OpConnect, MsgMeta: MsgMeta{Client: 1}},
		{Op: OpEcho, Seq: 1, Val: 10, MsgMeta: MsgMeta{Client: 0}},
		{Op: OpEcho, Seq: 1, Val: 20, MsgMeta: MsgMeta{Client: 1}},
		{Op: OpWork, Seq: 2, Val: 30, MsgMeta: MsgMeta{Client: 0}},
		{Op: OpDisconnect, MsgMeta: MsgMeta{Client: 0}},
		{Op: OpDisconnect, MsgMeta: MsgMeta{Client: 1}},
	}
	i := 0
	feed := func(SemID) {
		if i < len(script) {
			h.push(script[i])
			i++
		}
		h.a.sems[0]++
	}
	h.a.onP = feed
	worked := 0
	served := h.srv.Serve(func(m *Msg) { worked++; m.Val *= 2 })
	if served != 3 {
		t.Fatalf("served = %d, want 3", served)
	}
	if worked != 1 {
		t.Fatalf("work callback ran %d times, want 1", worked)
	}
	// Replies landed on the right channels: client0 got connect, echo,
	// work, disconnect; client1 got connect, echo, disconnect.
	if len(h.replies[0].msgs) != 4 || len(h.replies[1].msgs) != 3 {
		t.Fatalf("reply counts: %d, %d", len(h.replies[0].msgs), len(h.replies[1].msgs))
	}
	if h.replies[0].msgs[2].Val != 60 {
		t.Fatalf("work reply val = %v, want 60", h.replies[0].msgs[2].Val)
	}
}

func TestServerThrottleParksBeyondCap(t *testing.T) {
	const clients = 5
	h := newServerHarness(BSLS, clients, 1)
	h.srv.Throttle = 2
	h.srv.SetConnected(clients)
	// All clients are asleep; replying to each should wake only the
	// first two and park the rest.
	for i := 0; i < clients; i++ {
		h.replies[i].awake = false
		h.reply(int32(i), Msg{Op: OpEcho})
	}
	vs := 0
	for i := 0; i < clients; i++ {
		vs += h.a.sems[i+1]
	}
	if vs != 2 {
		t.Fatalf("issued %d wakes, want 2 (throttle)", vs)
	}
	if len(h.srv.deferred) != 3 {
		t.Fatalf("parked = %d, want 3", len(h.srv.deferred))
	}
	// All replies must still be enqueued (parking defers only the V).
	for i := 0; i < clients; i++ {
		if len(h.replies[i].msgs) != 1 {
			t.Fatalf("client %d reply missing", i)
		}
	}
}

func TestServerThrottleAdmissionPacing(t *testing.T) {
	const clients = 4
	h := newServerHarness(BSLS, clients, 1)
	h.srv.Throttle = 1
	h.srv.SetConnected(clients)
	for i := 0; i < clients; i++ {
		h.replies[i].awake = false
		h.reply(int32(i), Msg{Op: OpEcho})
	}
	if len(h.srv.deferred) != 3 {
		t.Fatalf("parked = %d, want 3", len(h.srv.deferred))
	}
	// Feed receives; parked clients must be admitted (FIFO) within the
	// pacing interval, and all of them within the starvation bound.
	interval := 2 * clients
	bound := 10 * interval
	h.a.onP = func(id SemID) { h.a.sems[id]++ }
	for r := 0; r < bound && len(h.srv.deferred) > 0; r++ {
		h.push(Msg{Op: OpEcho, MsgMeta: MsgMeta{Client: 0}})
		h.srv.Receive()
	}
	if len(h.srv.deferred) != 0 {
		t.Fatalf("starvation: %d clients still parked after %d receives", len(h.srv.deferred), bound)
	}
	// Admissions are FIFO: sems 2,3,4 (clients 1..3) were woken in order
	// — verify each got exactly one V.
	for i := 1; i < clients; i++ {
		if h.a.sems[i+1] != 1 {
			t.Fatalf("client %d sem = %d, want 1", i, h.a.sems[i+1])
		}
	}
}

func TestServerThrottleControlPathBypasses(t *testing.T) {
	h := newServerHarness(BSLS, 3, 1)
	h.srv.Throttle = 1
	h.srv.SetConnected(3)
	for i := 0; i < 3; i++ {
		h.replies[i].awake = false
	}
	// An echo reply is throttled: with 3 connected clients and a cap of
	// 1, the other two unparked clients already exceed the cap, so this
	// wake is parked.
	h.reply(0, Msg{Op: OpEcho})
	if h.a.sems[1] != 0 || len(h.srv.deferred) != 1 {
		t.Fatalf("echo wake not parked: sems=%v parked=%d", h.a.sems, len(h.srv.deferred))
	}
	// Connect and disconnect replies must wake immediately regardless.
	h.reply(1, Msg{Op: OpConnect})
	h.reply(2, Msg{Op: OpDisconnect})
	if h.a.sems[2] != 1 || h.a.sems[3] != 1 {
		t.Fatalf("control-path replies throttled: sems=%v", h.a.sems)
	}
	if len(h.srv.deferred) != 1 {
		t.Fatalf("parked = %d, want 1 (control path must not admit)", len(h.srv.deferred))
	}
}

func TestServerThrottleAllParkedLiveness(t *testing.T) {
	// If every connected client is parked, Receive must admit one before
	// waiting, or nothing could ever arrive.
	const clients = 2
	h := newServerHarness(BSW, clients, 0)
	h.srv.Throttle = 1
	h.srv.SetConnected(clients)
	// Park both clients: first takes the active slot, second parks...
	// with Throttle=1 and 2 connected, replying to both parks one.
	h.replies[0].awake = false
	h.replies[1].awake = false
	h.reply(0, Msg{Op: OpEcho})
	h.reply(1, Msg{Op: OpEcho})
	if len(h.srv.deferred) != 1 {
		t.Fatalf("parked = %d, want 1", len(h.srv.deferred))
	}
	// Park the remaining active client too by pretending it blocked
	// again after its wake: simulate by marking a new reply... instead,
	// directly verify the all-parked admission: park count == connected.
	h.srv.SetConnected(1) // only the parked client remains
	woken := make(chan SemID, 1)
	h.a.onP = func(id SemID) {
		// Receive is about to block: the parked client must have been
		// admitted by now.
		if len(h.srv.deferred) != 0 {
			t.Error("receive blocked with every connected client parked")
		}
		h.push(Msg{Op: OpEcho, MsgMeta: MsgMeta{Client: 1}})
		h.a.sems[id]++
		select {
		case woken <- id:
		default:
		}
	}
	h.srv.Receive()
	if len(h.srv.deferred) != 0 {
		t.Fatal("parked client never admitted")
	}
}

func TestServerUnknownAlgorithmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h := newServerHarness(Algorithm(99), 1, 0)
	h.push(Msg{})
	h.srv.Receive()
}

func TestServerReplyRoutesToCorrectClient(t *testing.T) {
	h := newServerHarness(BSW, 3, 0)
	for i := 0; i < 3; i++ {
		h.replies[i].awake = true
		h.reply(int32(i), Msg{Op: OpEcho, Seq: int32(i * 10)})
	}
	for i := 0; i < 3; i++ {
		if len(h.replies[i].msgs) != 1 || h.replies[i].msgs[0].Seq != int32(i*10) {
			t.Fatalf("client %d: %+v", i, h.replies[i].msgs)
		}
	}
}

func TestServerServeWorkNilCallback(t *testing.T) {
	h := newServerHarness(BSW, 1, 0)
	script := []Msg{
		{Op: OpConnect, MsgMeta: MsgMeta{Client: 0}},
		{Op: OpWork, Val: 5, MsgMeta: MsgMeta{Client: 0}},
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
		t.Fatalf("served = %d", served)
	}
}

func ExampleServer_Serve() {
	// A fully scripted single-client exchange (no goroutines).
	rcv := newFakePort(0, 8)
	reply := newFakePort(1, 8)
	a := newFakeActor(2)
	srv := &Server{Alg: BSW, Rcv: rcv, Replies: []Port{reply}, A: a}
	script := []Msg{
		{Op: OpConnect, MsgMeta: MsgMeta{Client: 0}},
		{Op: OpEcho, Val: 3.14, MsgMeta: MsgMeta{Client: 0}},
		{Op: OpDisconnect, MsgMeta: MsgMeta{Client: 0}},
	}
	i := 0
	a.onP = func(id SemID) {
		if i < len(script) {
			rcv.msgs = append(rcv.msgs, script[i])
			i++
		}
		a.sems[0]++
	}
	served := srv.Serve(nil)
	fmt.Println("served:", served, "echo:", reply.msgs[1].Val)
	// Output: served: 1 echo: 3.14
}
