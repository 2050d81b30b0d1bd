package core

import (
	"context"
	"errors"
	"testing"
)

// fakePoolPort is a deterministic in-memory PoolPort.
type fakePoolPort struct {
	msgs     []Msg
	capacity int
	waiters  int
	sem      SemID
}

func newFakePoolPort(sem SemID, capacity int) *fakePoolPort {
	return &fakePoolPort{capacity: capacity, sem: sem}
}

func (p *fakePoolPort) TryEnqueue(m Msg) bool {
	if len(p.msgs) >= p.capacity {
		return false
	}
	p.msgs = append(p.msgs, m)
	return true
}

func (p *fakePoolPort) TryEnqueueBatch(ms []Msg) int { return EnqueueEach(p, ms) }

func (p *fakePoolPort) TryDequeue() (Msg, bool) {
	if len(p.msgs) == 0 {
		return Msg{}, false
	}
	m := p.msgs[0]
	p.msgs = p.msgs[1:]
	return m, true
}

func (p *fakePoolPort) Empty() bool { return len(p.msgs) == 0 }

func (p *fakePoolPort) RegisterWaiter() { p.waiters++ }

func (p *fakePoolPort) TryUnregisterWaiter() bool {
	if p.waiters > 0 {
		p.waiters--
		return true
	}
	return false
}

func (p *fakePoolPort) ClaimWake() bool {
	if p.waiters > 0 {
		p.waiters--
		return true
	}
	return false
}

func (p *fakePoolPort) Sem() SemID { return p.sem }

func (p *fakePoolPort) Depth() int     { return 0 }
func (p *fakePoolPort) Refusing() bool { return false }
func (p *fakePoolPort) Closed() bool   { return false }
func (p *fakePoolPort) PeerDead() bool { return false }

var _ PoolPort = (*fakePoolPort)(nil)

func TestPoolWakeClaimsBeforeV(t *testing.T) {
	q := newFakePoolPort(0, 8)
	a := newFakeActor(1)
	wake(q, a) // no waiters: no V
	if a.sems[0] != 0 {
		t.Fatal("V issued with no registered waiter")
	}
	q.RegisterWaiter()
	wake(q, a)
	if a.sems[0] != 1 || q.waiters != 0 {
		t.Fatalf("sem=%d waiters=%d, want 1/0", a.sems[0], q.waiters)
	}
}

func TestPoolClientSendStampsAndWakes(t *testing.T) {
	for _, alg := range Algorithms() {
		srv := newFakePoolPort(0, 8)
		rcv := newFakePort(1, 8)
		a := newFakeActor(2)
		cl := &Client{ID: 5, Alg: alg, MaxSpin: 2, Srv: srv, Rcv: rcv, A: a}
		echo := func() {
			if m, ok := srv.TryDequeue(); ok {
				rcv.msgs = append(rcv.msgs, m)
			}
		}
		a.onBusy = echo
		a.onYield = echo
		a.onP = func(id SemID) { echo(); a.sems[id]++ }
		srv.RegisterWaiter() // one worker is asleep
		ans := cl.Send(Msg{Op: OpEcho, Seq: 3})
		if ans.Client != 5 || ans.Seq != 3 {
			t.Errorf("%s: reply %+v", alg, ans)
		}
		if alg != BSS && srv.waiters != 0 {
			t.Errorf("%s: sleeping worker not claimed", alg)
		}
		if alg == BSS && srv.waiters != 1 {
			t.Errorf("%s: BSS must not claim waiters", alg)
		}
	}
}

func TestPoolWorkerReceiveDrainsQueueFirst(t *testing.T) {
	q := newFakePoolPort(0, 8)
	a := newFakeActor(1)
	coord := &PoolCoordinator{Workers: 1}
	w := &PoolWorker{Alg: BSW, Rcv: q, Replies: nil, A: a, C: coord}
	q.TryEnqueue(Msg{Seq: 1})
	m, err := w.ReceiveCtx(context.Background())
	if err != nil || m.Seq != 1 {
		t.Fatalf("got %+v %v", m, err)
	}
	if q.waiters != 0 {
		t.Fatal("hot receive must not register")
	}
}

func TestPoolWorkerReceiveRegistersThenSleeps(t *testing.T) {
	q := newFakePoolPort(0, 8)
	a := newFakeActor(1)
	coord := &PoolCoordinator{Workers: 1}
	w := &PoolWorker{Alg: BSW, Rcv: q, A: a, C: coord}
	a.onP = func(id SemID) {
		// Producer runs: enqueue, claim, V.
		q.TryEnqueue(Msg{Seq: 9})
		if !q.ClaimWake() {
			t.Error("producer found no registered waiter")
		}
		a.sems[id]++
	}
	m, err := w.ReceiveCtx(context.Background())
	if err != nil || m.Seq != 9 {
		t.Fatalf("got %+v %v", m, err)
	}
	if a.blockedAt != 1 {
		t.Fatalf("blockedAt = %d", a.blockedAt)
	}
}

func TestPoolWorkerLateSuccessClaimedSkip(t *testing.T) {
	// The message lands between register and re-check AND the producer
	// claimed the registration: the worker must NOT drain the V (a
	// sibling may legitimately own it) and must not block.
	q := newFakePoolPort(0, 8)
	a := newFakeActor(1)
	coord := &PoolCoordinator{Workers: 2}
	w := &PoolWorker{Alg: BSW, Rcv: q, A: a, C: coord}
	registered := false
	wrapped := &registerHookPool{fakePoolPort: q, onRegister: func() {
		if !registered {
			registered = true
			q.msgs = append(q.msgs, Msg{Seq: 4})
			q.waiters = 0 // producer claimed
			a.sems[0]++   // and issued the V
		}
	}}
	w.Rcv = wrapped
	m, err := w.ReceiveCtx(context.Background())
	if err != nil || m.Seq != 4 {
		t.Fatalf("got %+v %v", m, err)
	}
	if a.blockedAt != 0 {
		t.Fatal("claimed-skip path must not block")
	}
	if a.sems[0] != 1 {
		t.Fatalf("pending V = %d, want 1 (left for a sibling)", a.sems[0])
	}
}

type registerHookPool struct {
	*fakePoolPort
	onRegister func()
}

func (p *registerHookPool) RegisterWaiter() {
	p.fakePoolPort.RegisterWaiter()
	if p.onRegister != nil {
		p.onRegister()
	}
}

func TestPoolWorkerStopsOnShutdown(t *testing.T) {
	q := newFakePoolPort(0, 8)
	a := newFakeActor(1)
	coord := &PoolCoordinator{Workers: 1}
	coord.stop.Store(true)
	w := &PoolWorker{Alg: BSW, Rcv: q, A: a, C: coord}
	if _, err := w.ReceiveCtx(context.Background()); !errors.Is(err, ErrShutdown) {
		t.Fatalf("ReceiveCtx after shutdown = %v, want ErrShutdown", err)
	}
}

func TestPoolServeShutdownBroadcast(t *testing.T) {
	q := newFakePoolPort(0, 8)
	reply := newFakePort(1, 8)
	a := newFakeActor(2)
	coord := &PoolCoordinator{Workers: 3}
	w := &PoolWorker{Alg: BSW, Rcv: q, Replies: []Port{reply}, A: a, C: coord}
	q.TryEnqueue(Msg{Op: OpConnect, MsgMeta: MsgMeta{Client: 0}})
	q.TryEnqueue(Msg{Op: OpEcho, MsgMeta: MsgMeta{Client: 0}})
	q.TryEnqueue(Msg{Op: OpDisconnect, MsgMeta: MsgMeta{Client: 0}})
	if err := w.ServeCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if !coord.Stopped() {
		t.Fatal("pool not stopped after last disconnect")
	}
	if coord.Served() != 1 {
		t.Fatalf("served = %d", coord.Served())
	}
	// The broadcast issues one V per worker so parked siblings wake.
	if a.sems[0] != 3 {
		t.Fatalf("broadcast Vs = %d, want 3", a.sems[0])
	}
}

func TestPoolWorkerReplyValidation(t *testing.T) {
	q := newFakePoolPort(0, 8)
	reply := newFakePort(1, 8)
	a := newFakeActor(2)
	w := &PoolWorker{Alg: BSW, Rcv: q, Replies: []Port{reply}, A: a, C: &PoolCoordinator{Workers: 1}}
	for _, c := range []int32{-1, 7} {
		if err := w.ReplyCtx(context.Background(), c, Msg{}); !errors.Is(err, ErrDoubleReply) {
			t.Errorf("ReplyCtx to channel %d = %v, want ErrDoubleReply", c, err)
		}
	}
	if len(reply.msgs) != 0 {
		t.Fatal("invalid reply channels must be dropped")
	}
}
