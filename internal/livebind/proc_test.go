package livebind

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/metrics"
	"ulipc/internal/shm"
)

func testProcOptions(alg core.Algorithm) ProcOptions {
	return ProcOptions{
		Alg:            alg,
		SleepScale:     time.Millisecond,
		WaitSlice:      5 * time.Millisecond,
		HeartbeatEvery: 2 * time.Millisecond,
		SweepEvery:     5 * time.Millisecond,
		Lease:          time.Hour, // tests stage deaths explicitly
	}
}

// Full echo exchange through a segment: server + two clients, every
// message crossing lanes/pool/futex words exactly as two processes
// would (a heap segment is the same memory layout minus the mmap).
func TestProcEchoAllProtocols(t *testing.T) {
	for _, alg := range core.Algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			seg, err := shm.NewHeapSeg(shm.SegConfig{Clients: 2, Nodes: 128, RingCap: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer seg.Close()

			srv, err := AttachProcServer(seg, testProcOptions(alg))
			if err != nil {
				t.Fatal(err)
			}
			var served int64
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				served = srv.Serve(nil)
			}()

			const perClient = 200
			clients := make([]*ProcClient, 2)
			for id := range clients {
				cl, err := AttachProcClient(seg, id, testProcOptions(alg))
				if err != nil {
					t.Fatal(err)
				}
				clients[id] = cl
			}
			// Barrier after connect: without it one client can finish
			// and disconnect before the other connects, dropping the
			// server's connected count to zero and ending Serve early.
			var ready sync.WaitGroup
			ready.Add(2)
			var cwg sync.WaitGroup
			for id := 0; id < 2; id++ {
				cwg.Add(1)
				go func(id int) {
					defer cwg.Done()
					cl := clients[id]
					defer cl.Close()
					r := cl.Send(core.Msg{Op: core.OpConnect})
					ready.Done()
					if r.Op != core.OpConnect {
						t.Errorf("client %d connect reply op %d", id, r.Op)
						return
					}
					ready.Wait()
					for i := 0; i < perClient; i++ {
						m := core.Msg{Op: core.OpEcho, Seq: int32(i), Val: float64(i) * 1.5}
						r := cl.Send(m)
						if r.Seq != m.Seq || r.Val != m.Val {
							t.Errorf("client %d echo %d: got %+v", id, i, r)
							return
						}
					}
					cl.Send(core.Msg{Op: core.OpDisconnect})
				}(id)
			}
			cwg.Wait()
			wg.Wait()
			srv.Close()

			if served != 2*perClient {
				t.Fatalf("served %d, want %d", served, 2*perClient)
			}
			// No refs leaked: the pool is whole after a clean run.
			v, _ := seg.View()
			if free := v.Pool.FreeCount(); free != 128 {
				t.Fatalf("pool free %d after clean run, want 128", free)
			}
		})
	}
}

// A client waiting for its reply unblocks with ErrPeerDead when the
// sweeper declares the server dead (staged here by stalling a fake
// server's heartbeat past the lease) — whether it parks on its reply
// semaphore (BSW), spins on sched_yield (BSS) or does both (BSLS). One
// P makes it a starvation check too: the spinning client's yields are
// raw syscalls the Go scheduler never sees, so the process's own
// sweeper goroutine gets the P only by preempting the spinner.
func TestProcServerDeathUnblocksClient(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, alg := range []core.Algorithm{core.BSW, core.BSS, core.BSLS} {
		t.Run(alg.String(), func(t *testing.T) {
			seg, err := shm.NewHeapSeg(shm.SegConfig{Clients: 1, Nodes: 32, RingCap: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer seg.Close()
			v, _ := seg.View()

			// A fake server that will never heartbeat: Pid 0 skips the
			// pid probe, so only the lease can declare it.
			v.Life[ServerSlot].State.Store(shm.LifeLive)

			opts := testProcOptions(alg)
			opts.Lease = 30 * time.Millisecond
			opts.M = &metrics.Proc{}
			cl, err := AttachProcClient(seg, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			start := time.Now()
			_, err = cl.SendCtx(ctx, core.Msg{Op: core.OpEcho, Seq: 1})
			took := time.Since(start)
			if !errors.Is(err, core.ErrPeerDead) {
				t.Fatalf("SendCtx against dead server: %v, want ErrPeerDead", err)
			}
			if took > time.Second {
				t.Fatalf("ErrPeerDead took %v, want under 1s", took)
			}
			if !cl.Sys.SegDead() {
				t.Fatal("segment not marked dead after server death")
			}
			deaths, dead := opts.M.PeerDeaths.Load(), cl.Sys.View().Hdr.DeadSlot.Load()
			if deaths != 1 || dead != ServerSlot {
				t.Fatalf("%d peer deaths, dead slot %d; want one death at slot %d", deaths, dead, ServerSlot)
			}
		})
	}
}

// A dead client's remains are recovered: its reply lane is drained back
// to the pool, its semaphore poisoned, and the server receives one
// compensating V for the wake-up the client may have died owing.
func TestProcClientDeathRescue(t *testing.T) {
	seg, err := shm.NewHeapSeg(shm.SegConfig{Clients: 1, Nodes: 32, RingCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	v, _ := seg.View()

	opts := testProcOptions(core.BSW)
	opts.Lease = 30 * time.Millisecond
	opts.WaitSlice = 10 * time.Second // isolate the compensating-V path
	opts.M = &metrics.Proc{}
	m := opts.M
	srv, err := AttachProcServer(seg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan int64, 1)
	go func() {
		n, _ := srv.ServeCtx(ctx, nil)
		served <- n
	}()
	time.Sleep(50 * time.Millisecond) // let the server park

	// Fake client: joins, enqueues a request, dies before its V — the
	// permanently lost wake-up. The parked server cannot see it until
	// the sweeper's compensating V arrives.
	v.Life[1].State.Store(shm.LifeLive)
	ref, _ := v.Pool.Alloc()
	v.Arena().Node(ref).SetMsg(core.Msg{Op: core.OpEcho, Seq: 7, MsgMeta: core.MsgMeta{Client: 0}})
	v.ReqLane(0).TryPush(ref)
	// And one stale reply queued to it, to verify the drain.
	r2, _ := v.Pool.Alloc()
	v.ReplyLane(0).TryPush(r2)

	deadline := time.Now().Add(10 * time.Second)
	for m.PeerDeaths.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweeper never declared the stalled client dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The compensating V must wake the parked server, which processes
	// the orphan request (the reply to the dead client is dropped at
	// the refusing port).
	for {
		select {
		case n := <-served:
			t.Fatalf("ServeCtx exited early with %d", n)
		default:
		}
		if m.WakeRescues.Load() == 1 && m.OrphanMsgs.Load() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("WakeRescues=%d OrphanMsgs=%d, want 1 and 1", m.WakeRescues.Load(), m.OrphanMsgs.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Close poisons the semaphores, so the parked ServeCtx exits
	// promptly — a ctx cancel alone is only noticed at the next
	// wait-slice boundary (10s here, by construction).
	srv.Close()
	n := <-served
	cancel()
	if n != 1 {
		t.Fatalf("served %d, want the orphan request processed", n)
	}
	// Post-mortem: with everyone gone the audit makes the pool whole.
	if _, _, _, err := v.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if free := v.Pool.FreeCount(); free != 32 {
		t.Fatalf("pool free %d after reclaim, want 32", free)
	}
}

// Attachment is guarded: slots cannot be claimed twice, dead or
// shut-down segments refuse new participants.
func TestProcAttachErrors(t *testing.T) {
	seg, err := shm.NewHeapSeg(shm.SegConfig{Clients: 1, Nodes: 32, RingCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	opts := testProcOptions(core.BSW)
	opts.NoSweep = true
	srv, err := AttachProcServer(seg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AttachProcServer(seg, opts); err == nil {
		t.Fatal("second server attach succeeded")
	}
	if _, err := AttachProcClient(seg, 5, opts); err == nil {
		t.Fatal("out-of-range client attach succeeded")
	}
	cl, err := AttachProcClient(seg, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AttachProcClient(seg, 0, opts); err == nil {
		t.Fatal("double client attach succeeded")
	}
	cl.Close()
	srv.Close() // server close → SegShutdown
	v, _ := seg.View()
	if got := v.Hdr.State.Load(); got != shm.SegShutdown {
		t.Fatalf("state %d after server close, want SegShutdown", got)
	}
	if _, err := AttachProcClient(seg, 0, opts); !errors.Is(err, core.ErrShutdown) {
		t.Fatalf("attach to shut-down segment: %v, want ErrShutdown", err)
	}
	v.Hdr.State.Store(shm.SegDead)
	if _, err := AttachProcClient(seg, 0, opts); !errors.Is(err, core.ErrPeerDead) {
		t.Fatalf("attach to dead segment: %v, want ErrPeerDead", err)
	}
}
