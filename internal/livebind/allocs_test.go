package livebind

import (
	"context"
	"testing"

	"ulipc/internal/core"
)

// The round trip allocates nothing once warm: no waiter, channel or
// request copy per message on the semaphore or the serve loops. A
// vectored call pays only for its reply slice, at most one allocation
// per batch. AllocsPerRun counts the server goroutine's allocations as
// well as the caller's.

func TestZeroAllocRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	shared, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		alg  core.Algorithm
		ctx  context.Context // nil: the v1 Send/Serve verbs
	}{
		{"BSW/SendCtx/shared", core.BSW, shared},
		{"BSW/SendCtx/background", core.BSW, context.Background()},
		{"BSLS/Send", core.BSLS, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(Options{Alg: tc.alg, Clients: 1})
			if err != nil {
				t.Fatal(err)
			}
			srv := sys.Server()
			served := make(chan struct{})
			go func() {
				defer close(served)
				if tc.ctx == nil {
					srv.Serve(nil)
				} else {
					srv.ServeCtx(tc.ctx, nil)
				}
			}()
			cl, err := sys.Client(0)
			if err != nil {
				t.Fatal(err)
			}
			m := core.Msg{Op: core.OpEcho}
			send := func() {
				m.Seq++
				var r core.Msg
				if tc.ctx == nil {
					r = cl.Send(m)
				} else if r, err = cl.SendCtx(tc.ctx, m); err != nil {
					t.Fatal(err)
				}
				if r.Seq != m.Seq {
					t.Fatalf("reply %d to request %d", r.Seq, m.Seq)
				}
			}
			for i := 0; i < 200; i++ { // slots, registrations and node pools warm up
				send()
			}
			if n := testing.AllocsPerRun(2000, send); n != 0 {
				t.Errorf("%v allocations per round trip, want 0", n)
			}
			if err := sys.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			<-served
		})
	}
}

// The zero-copy round trip allocates nothing either: the lease verbs
// return their views through inlined wrappers, so a caller that does
// not keep a view keeps it on its own stack. The client leases, fills,
// sends and releases the reply's block; the server receives, claims,
// mutates in place and replies with the same lease.
func TestPayloadZeroAllocRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, BlockSlots: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	served := make(chan struct{})
	go func() {
		defer close(served)
		for {
			m, err := srv.ReceiveCtx(ctx)
			if err != nil {
				return
			}
			p, err := srv.Payload(m)
			if err == nil {
				p.Bytes()[0]++
			}
			if srv.ReplyPayloadCtx(ctx, m.Client, m, p) != nil {
				return
			}
		}
	}()
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	var stamp byte
	send := func() {
		stamp++
		p, err := cl.AllocPayload(256)
		if err != nil {
			t.Fatal(err)
		}
		p.Bytes()[0] = stamp
		_, rp, err := cl.SendPayload(ctx, core.Msg{Op: core.OpWork}, p)
		if err != nil {
			t.Fatal(err)
		}
		if rp == nil || rp.Bytes()[0] != stamp+1 {
			t.Fatal("reply payload missing or not mutated in place")
		}
		if err := rp.Release(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		send()
	}
	if n := testing.AllocsPerRun(2000, send); n != 0 {
		t.Errorf("%v allocations per payload round trip, want 0", n)
	}
	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-served
	if free := sys.Blocks().TotalFree(); free != int64(sys.Blocks().Capacity()) {
		t.Fatalf("arena free %d / %d after the round trips", free, sys.Blocks().Capacity())
	}
}

// The vectored path: a steady-state SendBatchCtx/ServeBatchCtx pair pays
// for the returned reply slice and nothing else — the burst dequeues
// and the replies, sent straight out of the server's receive buffer,
// add no allocation. The other two cases leave the client side nothing
// to allocate, so their zero is the steady-state ServeBatchCtx's own:
// one client's queued requests, served as one same-client run, and four
// clients' requests interleaved on two shards, so each served burst
// holds several runs.
func TestBatchAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const batch, clients = 16, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sys, err := NewSystemGroup(2, Options{Alg: core.BSW, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	srvs, err := sys.ShardServers()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{}, len(srvs))
	for _, srv := range srvs {
		go func() {
			srv.ServeBatchCtx(ctx, nil, batch)
			served <- struct{}{}
		}()
	}
	cls := make([]*core.Client, clients)
	for i := range cls {
		if cls[i], err = sys.Client(i); err != nil {
			t.Fatal(err)
		}
	}
	msgs := make([]core.Msg, batch)
	sendBatch := func() {
		for i := range msgs {
			msgs[i] = core.Msg{Op: core.OpEcho, Seq: int32(i)}
		}
		out, err := cls[0].SendBatchCtx(ctx, msgs)
		if err != nil || len(out) != batch {
			t.Fatalf("batch: %d replies, %v", len(out), err)
		}
	}
	oneRun := func() {
		for j := 0; j < batch; j++ {
			if err := cls[0].SendAsyncCtx(ctx, core.Msg{Op: core.OpEcho, Seq: int32(j)}); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < batch; j++ {
			if _, err := cls[0].RecvReplyCtx(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	interleaved := func() {
		for j := 0; j < batch/clients; j++ {
			for _, cl := range cls {
				if err := cl.SendAsyncCtx(ctx, core.Msg{Op: core.OpEcho, Seq: int32(j)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, cl := range cls {
			for j := 0; j < batch/clients; j++ {
				if _, err := cl.RecvReplyCtx(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, tc := range []struct {
		name string
		call func()
		max  float64
	}{
		{"SendBatchCtx", sendBatch, 1},
		{"ServeBatchCtx/one run", oneRun, 0},
		{"ServeBatchCtx/interleaved", interleaved, 0},
	} {
		for i := 0; i < 100; i++ {
			tc.call()
		}
		if n := testing.AllocsPerRun(1000, tc.call); n > tc.max {
			t.Errorf("%s: %v allocations per %d messages, want at most %v", tc.name, n, batch, tc.max)
		}
	}
	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for range srvs {
		<-served
	}
}
