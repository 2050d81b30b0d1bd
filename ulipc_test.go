package ulipc_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ulipc"
)

// TestPublicAPIEcho exercises the facade the way the README shows.
func TestPublicAPIEcho(t *testing.T) {
	sys, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSLS, Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	done := make(chan int64, 1)
	go func() { done <- srv.Serve(nil) }()

	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	cl.Send(ulipc.Msg{Op: ulipc.OpConnect})
	for i := 0; i < 100; i++ {
		ans := cl.Send(ulipc.Msg{Op: ulipc.OpEcho, Seq: int32(i), Val: float64(i)})
		if ans.Val != float64(i) {
			t.Fatalf("echo %d: %+v", i, ans)
		}
	}
	cl.Send(ulipc.Msg{Op: ulipc.OpDisconnect})
	if served := <-done; served != 100 {
		t.Fatalf("served = %d", served)
	}
}

// TestPublicAPIAllProtocolsAndQueues sweeps the protocol x queue matrix
// through the facade.
func TestPublicAPIAllProtocolsAndQueues(t *testing.T) {
	for _, alg := range ulipc.Algorithms() {
		for _, kind := range []ulipc.QueueKind{ulipc.QueueTwoLock, ulipc.QueueLockFree, ulipc.QueueRing} {
			sys, err := ulipc.NewSystem(ulipc.Options{Alg: alg, Clients: 2, QueueKind: kind})
			if err != nil {
				t.Fatal(err)
			}
			srv := sys.Server()
			go srv.Serve(nil)
			var wg sync.WaitGroup
			var barrier sync.WaitGroup
			barrier.Add(2)
			for i := 0; i < 2; i++ {
				cl, err := sys.Client(i)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int, cl *ulipc.Client) {
					defer wg.Done()
					cl.Send(ulipc.Msg{Op: ulipc.OpConnect})
					barrier.Done()
					barrier.Wait()
					for j := 0; j < 50; j++ {
						ans := cl.Send(ulipc.Msg{Op: ulipc.OpEcho, Seq: int32(j)})
						if ans.Seq != int32(j) {
							t.Errorf("%s/%s: bad reply %+v", alg, kind, ans)
							return
						}
					}
					cl.Send(ulipc.Msg{Op: ulipc.OpDisconnect})
				}(i, cl)
			}
			wg.Wait()
		}
	}
}

// TestPublicAPIDuplexAndBlocks covers the extension surface.
func TestPublicAPIDuplexAndBlocks(t *testing.T) {
	sys, err := ulipc.NewSystem(ulipc.Options{
		Alg: ulipc.BSW, Clients: 1, Duplex: true, BlockSlots: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, h, err := sys.DuplexPair(0)
	if err != nil {
		t.Fatal(err)
	}
	pool := sys.Blocks()
	go h.ServeConnCtx(context.Background(), func(m *ulipc.Msg) {
		ref, n := m.Block()
		buf, err := pool.Get(ref)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n/2; i++ { // reverse in place
			buf[i], buf[n-1-i] = buf[n-1-i], buf[i]
		}
	})

	payload := "abcdef"
	ref, buf, ok := pool.Alloc(len(payload))
	if !ok {
		t.Fatal("alloc failed")
	}
	copy(buf, payload)
	req := ulipc.Msg{Op: ulipc.OpWork}
	req.SetBlock(ref, len(payload))
	ans := cl.Send(req)
	gotRef, n := ans.Block()
	got, err := pool.Get(gotRef)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:n]) != "fedcba" {
		t.Fatalf("got %q", got[:n])
	}
	cl.Send(ulipc.Msg{Op: ulipc.OpDisconnect})
}

func TestAlgorithmByNameFacade(t *testing.T) {
	alg, err := ulipc.AlgorithmByName("BSLS")
	if err != nil || alg != ulipc.BSLS {
		t.Fatalf("got %v, %v", alg, err)
	}
}

// ExampleNewSystem is the documented quick start.
func ExampleNewSystem() {
	sys, _ := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSLS, Clients: 1})
	srv := sys.Server()
	go srv.Serve(nil)

	cl, _ := sys.Client(0)
	cl.Send(ulipc.Msg{Op: ulipc.OpConnect})
	reply := cl.Send(ulipc.Msg{Op: ulipc.OpEcho, Val: 42})
	cl.Send(ulipc.Msg{Op: ulipc.OpDisconnect})
	fmt.Println(reply.Val)
	// Output: 42
}

// ExampleClient_SendAsyncCtx shows the asynchronous batching mode.
func ExampleClient_SendAsyncCtx() {
	sys, _ := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSW, Clients: 1, QueueCap: 16})
	srv := sys.Server()
	ctx := context.Background()
	go srv.ServeCtx(ctx, nil)

	cl, _ := sys.Client(0)
	cl.SendCtx(ctx, ulipc.Msg{Op: ulipc.OpConnect})
	for i := 0; i < 4; i++ {
		cl.SendAsyncCtx(ctx, ulipc.Msg{Op: ulipc.OpEcho, Seq: int32(i)})
	}
	sum := int32(0)
	for i := 0; i < 4; i++ {
		r, _ := cl.RecvReplyCtx(ctx)
		sum += r.Seq
	}
	cl.SendCtx(ctx, ulipc.Msg{Op: ulipc.OpDisconnect})
	fmt.Println(sum)
	// Output: 6
}

// TestPublicAPIConnLifecycle covers the dynamic connection surface.
func TestPublicAPIConnLifecycle(t *testing.T) {
	sys, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSLS, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	done := make(chan int64, 1)
	go func() { done <- srv.Serve(nil) }()

	conn, err := sys.ConnectCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := conn.SendCtx(context.Background(), ulipc.Msg{Op: ulipc.OpEcho, Val: 7})
	if err != nil || ans.Val != 7 {
		t.Fatalf("send: %+v %v", ans, err)
	}
	if err := conn.CloseCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestPublicAPIWorkerPool covers the pool surface end to end.
func TestPublicAPIWorkerPool(t *testing.T) {
	sys, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSW, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sys.WorkerPool(2)
	if err != nil {
		t.Fatal(err)
	}
	var swg sync.WaitGroup
	for _, w := range pool {
		swg.Add(1)
		go func(w *ulipc.PoolWorker) {
			defer swg.Done()
			if err := w.ServeCtx(context.Background(), nil); err != nil {
				t.Error(err)
			}
		}(w)
	}
	var barrier, wg sync.WaitGroup
	barrier.Add(2)
	for i := 0; i < 2; i++ {
		cl, err := sys.PoolClient(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cl *ulipc.Client) {
			defer wg.Done()
			cl.Send(ulipc.Msg{Op: ulipc.OpConnect})
			barrier.Done()
			barrier.Wait()
			for j := 0; j < 100; j++ {
				if ans := cl.Send(ulipc.Msg{Op: ulipc.OpEcho, Seq: int32(j)}); ans.Seq != int32(j) {
					t.Errorf("bad reply %+v", ans)
					return
				}
			}
			cl.Send(ulipc.Msg{Op: ulipc.OpDisconnect})
		}(cl)
	}
	wg.Wait()
	swg.Wait()
}
