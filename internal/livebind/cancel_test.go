package livebind

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/metrics"
	"ulipc/internal/queue"
)

// TestCancelRacingWakeup drives SendCtx with deadlines straddling the
// park window of each blocking protocol while the server keeps
// replying: the awake-flag race of Figure 4, revisited under
// cancellation. The assertions are exactly the acceptance property —
// cancelled waits return promptly, and no wake destined for a live
// waiter is ever swallowed (the final full-deadline exchange succeeds
// and the reply semaphore count stays bounded).
func TestCancelRacingWakeup(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 100
	}
	for _, alg := range []core.Algorithm{core.BSW, core.BSWY, core.BSLS} {
		t.Run(alg.String(), func(t *testing.T) {
			sys, err := NewSystem(Options{Alg: alg, Clients: 1, SleepScale: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			srv := sys.Server()
			serverDone := make(chan error, 1)
			go func() {
				// Stall occasionally so some clients cancel while parked
				// waiting for the reply rather than on the fast path.
				n := 0
				_, err := srv.ServeCtx(context.Background(), func(m *core.Msg) {
					n++
					if n%7 == 0 {
						time.Sleep(20 * time.Microsecond)
					}
				})
				serverDone <- err
			}()

			cl, err := sys.Client(0)
			if err != nil {
				t.Fatal(err)
			}
			long := func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 10*time.Second)
			}
			ctx, cancel := long()
			if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpConnect}); err != nil {
				t.Fatal(err)
			}
			cancel()

			cancelled := 0
			for i := 0; i < iters; i++ {
				d := time.Duration(i%9) * 5 * time.Microsecond
				ctx, cancel := context.WithTimeout(context.Background(), d)
				ans, err := cl.SendCtx(ctx, core.Msg{Op: core.OpEcho, Seq: int32(i), Val: float64(i)})
				cancel()
				switch {
				case err == nil:
					if ans.Seq != int32(i) || ans.Val != float64(i) {
						t.Fatalf("iter %d: misattributed reply %+v", i, ans)
					}
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
					cancelled++
				default:
					t.Fatalf("iter %d: unexpected error %v", i, err)
				}
			}
			t.Logf("%s: %d/%d sends cancelled, lag drained to %d", alg, cancelled, iters, cl.Lag())

			// Zero lost wake-ups: a full-deadline exchange still completes.
			ctx, cancel = long()
			ans, err := cl.SendCtx(ctx, core.Msg{Op: core.OpEcho, Seq: 7777, Val: 42})
			if err != nil || ans.Seq != 7777 {
				t.Fatalf("post-stress exchange: %+v, %v", ans, err)
			}
			if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpDisconnect}); err != nil {
				t.Fatalf("disconnect: %v", err)
			}
			cancel()
			if err := <-serverDone; err != nil {
				t.Fatalf("server: %v", err)
			}
			if n := sys.ReplyChannel(0).SemCount(); n > 1 {
				t.Fatalf("reply semaphore count %d at quiescence: tokens leaked", n)
			}
			shutCtx, shutCancel := context.WithTimeout(context.Background(), time.Second)
			defer shutCancel()
			if err := sys.Shutdown(shutCtx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		})
	}
}

// TestShutdownUnblocksParkedClients parks BSLS clients waiting for
// replies that will never come (no server is consuming), with
// non-empty producer caches from an earlier served phase, then shuts
// down: every parked waiter must return ErrShutdown well before its
// own deadline, and the batched caches must spill back to the pool.
func TestShutdownUnblocksParkedClients(t *testing.T) {
	const clients = 3
	ms := metrics.NewSet()
	// The allocation cache exists only on a two-lock queue's node pool.
	sys, err := NewSystem(Options{
		Alg:        core.BSLS,
		Clients:    clients,
		QueueKind:  queue.KindTwoLock,
		SleepScale: time.Millisecond,
		AllocBatch: 8,
		Metrics:    ms,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: a served burst, so the batched producer ports hold
	// cached refs and the system has real traffic behind it.
	srv := sys.Server()
	serverDone := make(chan error, 1)
	go func() {
		_, err := srv.ServeCtx(context.Background(), nil)
		serverDone <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	// Connect everyone before the first disconnect, or the server's
	// connected count would hit zero early and ServeCtx would exit.
	phase1 := make([]*core.Client, clients)
	for i := range phase1 {
		cl, err := sys.Client(i)
		if err != nil {
			t.Fatal(err)
		}
		phase1[i] = cl
		if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpConnect}); err != nil {
			t.Fatal(err)
		}
	}
	for i, cl := range phase1 {
		for j := 0; j < 20; j++ {
			if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpEcho, Seq: int32(j)}); err != nil {
				t.Fatalf("client %d echo %d: %v", i, j, err)
			}
		}
	}
	for _, cl := range phase1 {
		if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpDisconnect}); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if err := <-serverDone; err != nil {
		t.Fatalf("server: %v", err)
	}

	// Phase 2: fresh handles send with nobody consuming — each request
	// is enqueued and the client parks on its reply semaphore.
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cl, err := sys.Client(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cl *core.Client) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, err := cl.SendCtx(ctx, core.Msg{Op: core.OpEcho})
			errCh <- err
		}(cl)
	}
	time.Sleep(20 * time.Millisecond) // let the BSLS spin budgets expire and the waiters park

	start := time.Now()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer shutCancel()
	serr := sys.Shutdown(shutCtx)
	if !errors.Is(serr, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with undrainable requests = %v, want DeadlineExceeded", serr)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("parked clients took %v to unblock", elapsed)
	}
	for i := 0; i < clients; i++ {
		if err := <-errCh; !errors.Is(err, core.ErrShutdown) {
			t.Fatalf("parked SendCtx = %v, want ErrShutdown", err)
		}
	}
	if total := ms.Total(); total.PoolSpills == 0 {
		t.Fatalf("no cache spills recorded: %+v", total)
	}
	// Idempotent: a second Shutdown does not re-run teardown; it returns
	// the first call's result, so the drain-deadline failure stays
	// visible to every caller.
	if err := sys.Shutdown(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second Shutdown = %v, want first call's DeadlineExceeded", err)
	}
}

// TestShutdownUnblocksPoolWorkers parks a BSLS worker pool on an empty
// receive queue and shuts down: every ServeCtx must return promptly
// and cleanly.
func TestShutdownUnblocksPoolWorkers(t *testing.T) {
	const workers = 3
	sys, err := NewSystem(Options{Alg: core.BSLS, Clients: 2, SleepScale: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sys.WorkerPool(workers)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, workers)
	for _, w := range pool {
		go func(w *core.PoolWorker) {
			done <- w.ServeCtx(context.Background(), nil)
		}(w)
	}

	// A little real traffic first, then leave the workers parked.
	cl, err := sys.PoolClient(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for j := 0; j < 10; j++ {
		if ans, err := cl.SendCtx(ctx, core.Msg{Op: core.OpEcho, Seq: int32(j)}); err != nil || ans.Seq != int32(j) {
			t.Fatalf("echo %d: %+v, %v", j, ans, err)
		}
	}
	time.Sleep(10 * time.Millisecond)

	shutCtx, shutCancel := context.WithTimeout(context.Background(), time.Second)
	defer shutCancel()
	if err := sys.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i := 0; i < workers; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("worker ServeCtx = %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("worker still parked after Shutdown")
		}
	}
	// New sends observe the refusing/closed port and fail fast.
	if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpEcho}); !errors.Is(err, core.ErrShutdown) {
		t.Fatalf("post-shutdown SendCtx = %v, want ErrShutdown", err)
	}
}

// TestSendCtxDeadlineWhileParked checks the headline acceptance bound
// directly: a client parked in each blocking protocol with no server
// returns context.DeadlineExceeded close to its deadline.
func TestSendCtxDeadlineWhileParked(t *testing.T) {
	for _, alg := range []core.Algorithm{core.BSW, core.BSWY, core.BSLS} {
		t.Run(alg.String(), func(t *testing.T) {
			sys, err := NewSystem(Options{Alg: alg, Clients: 1, SleepScale: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			cl, err := sys.Client(0)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			_, err = cl.SendCtx(ctx, core.Msg{Op: core.OpEcho})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want DeadlineExceeded", err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("deadline overshot: %v", elapsed)
			}
			if cl.Lag() != 1 {
				t.Fatalf("lag = %d, want 1 (request enqueued, reply owed)", cl.Lag())
			}
		})
	}
}

// TestConnectCtxCancelledDoesNotReuseSlot pins the slot-quarantine
// rule: a handshake cancelled after its request was enqueued leaves a
// reply owed, so the slot must not return to the free list (a new
// conn there would inherit the stale reply).
func TestConnectCtxCancelledDoesNotReuseSlot(t *testing.T) {
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 2, SleepScale: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// No server: ConnectCtx enqueues the handshake and parks.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := sys.ConnectCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ConnectCtx = %v, want DeadlineExceeded", err)
	}

	// Now serve, and connect until the slots run out: the quarantined
	// slot must be missing from the pool.
	srv := sys.Server()
	go func() { _, _ = srv.ServeCtx(context.Background(), nil) }()
	long, lcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer lcancel()
	c1, err := sys.ConnectCtx(long)
	if err != nil {
		t.Fatalf("connect on remaining slot: %v", err)
	}
	if _, err := sys.ConnectCtx(long); !errors.Is(err, ErrNoFreeSlots) {
		t.Fatalf("second connect = %v, want ErrNoFreeSlots (one slot quarantined)", err)
	}
	if ans, err := c1.SendCtx(long, core.Msg{Op: core.OpEcho, Seq: 5}); err != nil || ans.Seq != 5 {
		t.Fatalf("echo on live conn: %+v, %v", ans, err)
	}
	if err := c1.CloseCtx(long); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Send on a closed conn is a typed misuse error.
	if _, err := c1.SendCtx(long, core.Msg{Op: core.OpEcho}); !errors.Is(err, core.ErrDisconnected) {
		t.Fatalf("send on closed conn = %v, want ErrDisconnected", err)
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), time.Second)
	defer shutCancel()
	if err := sys.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestShutdownConcurrent hammers Shutdown from many goroutines at once:
// exactly one runs the teardown phases, every caller gets the first
// call's result, and the race detector sees no unsynchronised state.
// (Sequential idempotence is asserted in
// TestShutdownUnblocksParkedClients; this is the concurrent half of the
// contract.)
func TestShutdownConcurrent(t *testing.T) {
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, SleepScale: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	serverDone := make(chan error, 1)
	go func() {
		_, err := srv.ServeCtx(context.Background(), nil)
		serverDone <- err
	}()
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpConnect}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpDisconnect}); err != nil {
		t.Fatal(err)
	}
	if err := <-serverDone; err != nil {
		t.Fatalf("server: %v", err)
	}

	const callers = 8
	errs := make(chan error, callers)
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		go func() {
			start.Wait()
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer scancel()
			errs <- sys.Shutdown(sctx)
		}()
	}
	start.Done()
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent Shutdown = %v", err)
		}
	}
}

// TestBatchLagDrainReleasesPayload: a payload SendCtx times out against
// a slow server, which then answers with the request's block attached.
// The reply is stale — owed as lag — and the next call on the handle is
// a batch send, whose lag drain must return the block as SendCtx's own
// drain does. Otherwise the block stays leased to the server, which is
// alive, so no sweeper ever walks it back.
func TestBatchLagDrainReleasesPayload(t *testing.T) {
	t.Run("SendBatchCtx", func(t *testing.T) {
		sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, BlockSlots: 4})
		if err != nil {
			t.Fatal(err)
		}
		srv := sys.Server()
		gate := make(chan struct{})
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.ServeCtx(context.Background(), func(m *core.Msg) {
				<-gate // slow: the client's deadline passes first
				p, err := srv.Payload(*m)
				if err != nil {
					t.Error(err)
					return
				}
				m.AttachPayload(p) // the reply carries the lease back
			})
		}()
		cl, err := sys.Client(0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := cl.AllocPayload(64)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, _, err = cl.SendPayload(ctx, core.Msg{Op: core.OpWork}, p)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || cl.Lag() != 1 {
			t.Fatalf("slow payload send = %v with lag %d, want DeadlineExceeded with lag 1", err, cl.Lag())
		}
		close(gate)

		msgs := []core.Msg{{Op: core.OpEcho, Seq: 7}}
		out, err := cl.SendBatchCtx(context.Background(), msgs)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0].Seq != 7 || cl.Lag() != 0 {
			t.Fatalf("batch after the timeout: replies %+v, lag %d", out, cl.Lag())
		}
		if err := sys.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		<-served
		if free := sys.Blocks().TotalFree(); free != int64(sys.Blocks().Capacity()) {
			t.Fatalf("arena free %d / %d: the stale reply's payload lease leaked", free, sys.Blocks().Capacity())
		}
	})
}

// TestSendPayloadDrainFailureReleasesPayload: a payload send that fails
// while still draining an earlier call's stale reply never enqueued its
// request, so the lease is the caller's to give back — even though a
// reply is still owed from before. Otherwise the block stays leased to
// a live client and no sweeper ever walks it back.
func TestSendPayloadDrainFailureReleasesPayload(t *testing.T) {
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, BlockSlots: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	gate := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.ServeCtx(context.Background(), func(m *core.Msg) {
			<-gate // slow: the client's deadline passes first
			if p, err := srv.Payload(*m); err == nil {
				m.AttachPayload(p)
			}
		})
	}()
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	send := func(ctx context.Context) error {
		p, err := cl.AllocPayload(64)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = cl.SendPayload(ctx, core.Msg{Op: core.OpWork}, p)
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	err = send(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) || cl.Lag() != 1 {
		t.Fatalf("slow payload send = %v with lag %d, want DeadlineExceeded with lag 1", err, cl.Lag())
	}
	// The gate is still shut, so this call fails in the stale-reply
	// drain, before its own request reaches the queue.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	if err := send(ctx); !errors.Is(err, context.Canceled) || cl.Lag() != 1 {
		t.Fatalf("cancelled payload send = %v with lag %d, want Canceled with lag 1", err, cl.Lag())
	}
	close(gate)
	if _, err := cl.SendCtx(context.Background(), core.Msg{Op: core.OpEcho}); err != nil || cl.Lag() != 0 {
		t.Fatalf("send after the gate opened = %v with lag %d", err, cl.Lag())
	}
	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-served
	if free := sys.Blocks().TotalFree(); free != int64(sys.Blocks().Capacity()) {
		t.Fatalf("arena free %d / %d: the unsent request's payload lease leaked", free, sys.Blocks().Capacity())
	}
}
