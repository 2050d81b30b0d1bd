package livebind

import (
	"context"
	"errors"
	"testing"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/fault"
	"ulipc/internal/metrics"
	"ulipc/internal/queue"
	"ulipc/internal/shm"
)

// TestKillActorDeliversErrPeerDead parks a client on a reply that will
// never come (the server handle exists but never runs), declares the
// server dead, and sweeps: the client must unblock with ErrPeerDead —
// not hang, and not plain ErrShutdown — and the orphaned request must
// drain back to the pool.
func TestKillActorDeliversErrPeerDead(t *testing.T) {
	ms := metrics.NewSet()
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, Metrics: ms, Recovery: &RecoveryOptions{SweepInterval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server() // registered, never run
	serverID := srv.A.(*Actor).ID

	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := cl.SendCtx(ctx, core.Msg{Op: core.OpEcho})
		res <- err
	}()
	time.Sleep(20 * time.Millisecond) // request enqueued, client parked

	sys.KillActor(serverID)
	sys.SweepNow()

	select {
	case err := <-res:
		if !errors.Is(err, core.ErrPeerDead) {
			t.Fatalf("parked SendCtx after server death = %v, want ErrPeerDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client still parked after peer-death sweep")
	}
	if !sys.ReplyChannel(0).PeerDead() {
		t.Fatal("reply channel not marked peer-dead")
	}
	total := ms.Total()
	if total.PeerDeaths != 1 {
		t.Fatalf("PeerDeaths = %d, want 1", total.PeerDeaths)
	}
	if total.OrphanMsgs < 1 {
		t.Fatalf("OrphanMsgs = %d, want >= 1 (the undelivered request)", total.OrphanMsgs)
	}
	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}

// A dead client's request can outlive its payload: the sweeper's owner
// walk returns the block while the request still waits in the server's
// queue, and a survivor may lease the slot before the server gets
// there. The stale request must then lose its claim — ErrPayloadLost on
// the server, the survivor's lease untouched — instead of handing the
// server a block someone else holds, to be freed a second time.
func TestStaleRequestCannotClaimRecycledBlock(t *testing.T) {
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 2, BlockSlots: 4, Recovery: &RecoveryOptions{SweepInterval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown(context.Background())
	srv := sys.Server() // registered, never run: the request stays queued
	victim, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := sys.Client(1)
	if err != nil {
		t.Fatal(err)
	}

	p, err := victim.AllocPayload(64)
	if err != nil {
		t.Fatal(err)
	}
	ref := p.Ref()
	req := core.Msg{Op: core.OpWork}
	req.AttachPayload(p)
	if err := victim.SendAsyncCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	sys.KillActor(victim.A.(*Actor).ID)
	sys.SweepNow()
	if _, leased := sys.Blocks().Owner(ref); leased {
		t.Fatal("owner walk left the dead client's queued block leased")
	}

	// The survivor takes the arena until it holds the reclaimed slot.
	var held []*core.Payload
	var recycled *core.Payload
	for recycled == nil {
		q, err := survivor.AllocPayload(64)
		if err != nil {
			t.Fatalf("reclaimed block never reallocated: %v", err)
		}
		held = append(held, q)
		if q.Ref() == ref {
			recycled = q
		}
	}

	stale, ok := srv.Rcv.TryDequeue()
	if !ok {
		t.Fatal("dead client's request not queued")
	}
	if _, err := srv.Payload(stale); !errors.Is(err, core.ErrPayloadLost) {
		t.Fatalf("claim through the stale request = %v, want ErrPayloadLost", err)
	}
	if owner, _ := sys.Blocks().Owner(ref); owner != survivor.Owner {
		t.Fatalf("recycled block owned by %d after the stale claim, want the survivor %d", owner, survivor.Owner)
	}
	for _, q := range held {
		if err := q.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if free := sys.Blocks().TotalFree(); free != int64(sys.Blocks().Capacity()) {
		t.Fatalf("arena free %d / %d after the survivor released everything", free, sys.Blocks().Capacity())
	}
}

// TestLeaseExpiryDetectsSilentDeath registers a client that never makes
// another move and sweeps after its lease expires: the sweeper must
// declare it dead without any ReportCrash/KillActor, and subsequent
// sends on the dead topology must surface ErrPeerDead.
func TestLeaseExpiryDetectsSilentDeath(t *testing.T) {
	ms := metrics.NewSet()
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, Metrics: ms, Recovery: &RecoveryOptions{SweepInterval: time.Hour, Lease: 30 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // lease expires with no beats
	sys.SweepNow()

	if got := ms.Total().PeerDeaths; got != 1 {
		t.Fatalf("PeerDeaths = %d, want 1 (lease expiry)", got)
	}
	// The dead client was the only consumer of its reply channel and the
	// only producer of the receive queue: both sides are peer-dead now.
	if !sys.ReplyChannel(0).PeerDead() || !sys.ReceiveChannel().PeerDead() {
		t.Fatal("channels not marked peer-dead after lease expiry")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpEcho}); !errors.Is(err, core.ErrPeerDead) {
		t.Fatalf("SendCtx on dead topology = %v, want ErrPeerDead", err)
	}
	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}

// TestDroppedWakeupsRescued runs full round trips with EVERY wake-up V
// swallowed by the injector: only the sweeper's lost-wake rescue can
// unpark the two sides, so completion proves the rescue heuristic
// restores liveness end to end.
func TestDroppedWakeupsRescued(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 3, DropWake: 1.0})
	ms := metrics.NewSet()
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, Metrics: ms, Faults: inj, Recovery: &RecoveryOptions{SweepInterval: 100 * time.Microsecond}})
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
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpConnect}); err != nil {
		t.Fatalf("connect: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpEcho, Seq: int32(i)}); err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
	}
	if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpDisconnect}); err != nil {
		t.Fatalf("disconnect: %v", err)
	}
	if err := <-serverDone; err != nil {
		t.Fatalf("server: %v", err)
	}
	if drops := inj.Counts().WakeDrops; drops == 0 {
		t.Fatal("injector dropped no wake-ups; the test exercised nothing")
	}
	if rescues := ms.Total().WakeRescues; rescues == 0 {
		t.Fatal("round trips completed with all Vs dropped but no rescues recorded")
	}
	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}

// A consumer can lose a wake-up with its queue empty: it clears its
// awake flag, a producer enqueues and wins the flag's test-and-set (so
// the V is its duty), the consumer's re-check dequeues the message and,
// finding the flag set, parks to take the V it is owed (receiveLeg's
// race-3 fix). If that V is dropped, nothing is queued for the sweeper
// to notice; the flag set over a parked consumer is what names the
// owed V.
func TestDroppedDrainWakeupRescued(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 3, DropWake: 1.0})
	ms := metrics.NewSet()
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, Metrics: ms, Faults: inj, Recovery: &RecoveryOptions{SweepInterval: 100 * time.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown(context.Background())
	srv := sys.Server()
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}

	reply := srv.Replies[0]
	cl.Rcv.SetAwake(false) // the consumer, between its two dequeues
	if !reply.TryEnqueue(core.Msg{Op: core.OpEcho}) {
		t.Fatal("reply enqueue failed")
	}
	if reply.TASAwake() {
		t.Fatal("awake flag set before the producer's test-and-set")
	}
	srv.A.V(reply.Sem()) // the producer's V, dropped
	if drops := inj.Counts().WakeDrops; drops != 1 {
		t.Fatalf("WakeDrops = %d, want 1", drops)
	}
	if _, ok := cl.Rcv.TryDequeue(); !ok {
		t.Fatal("the consumer's re-check found no message")
	}
	if !cl.Rcv.TASAwake() {
		t.Fatal("awake flag clear after the producer's test-and-set")
	}
	drained := make(chan struct{})
	go func() {
		cl.A.P(cl.Rcv.Sem()) // the owed V
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer still parked on a dropped V with an empty queue")
	}
	if rescues := ms.Total().WakeRescues; rescues == 0 {
		t.Fatal("consumer released without a rescue recorded")
	}
}

// TestServerCrashRecovery is the end-to-end robustness path: an
// injected crash kills the server inside the receive queue's locked
// dequeue section. The harness reports the crash, the sweeper revokes
// the dead holder's queue lock, reclaims the orphaned in-flight ref,
// and marks the reply side peer-dead so the parked client unblocks
// with ErrPeerDead instead of hanging forever.
func TestServerCrashRecovery(t *testing.T) {
	plan := fault.Plan{Seed: 42, MaxCrashes: 1}
	plan.Crash[fault.PtDequeueLocked] = 1.0
	inj := fault.NewInjector(plan)
	ms := metrics.NewSet()
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, QueueKind: queue.KindTwoLock, Metrics: ms, Faults: inj, Recovery: &RecoveryOptions{SweepInterval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}

	// The receive queue, pinned to KindTwoLock, is the system's only
	// two-lock queue (replies are SPSC rings), so the armed dequeue
	// crashpoint can only fire in the server — deterministically, on its
	// first dequeue.
	srv := sys.Server()
	crashed := make(chan struct{})
	go func() {
		defer func() {
			if v := recover(); v != nil {
				if !sys.ReportCrash(v) {
					panic(v) // not an injected fault: a real bug
				}
				close(crashed)
			}
		}()
		_, _ = srv.ServeCtx(context.Background(), nil)
	}()

	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := cl.SendCtx(ctx, core.Msg{Op: core.OpEcho})
		res <- err
	}()

	select {
	case <-crashed:
	case <-time.After(5 * time.Second):
		t.Fatal("server never hit the armed crashpoint")
	}
	sys.SweepNow()

	select {
	case err := <-res:
		if !errors.Is(err, core.ErrPeerDead) {
			t.Fatalf("client after server crash = %v, want ErrPeerDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client still parked after crash recovery sweep")
	}

	if got := inj.Counts().Crashes; got != 1 {
		t.Fatalf("injected crashes = %d, want 1", got)
	}
	total := ms.Total()
	if total.Crashes != 1 {
		t.Fatalf("metrics Crashes = %d, want 1", total.Crashes)
	}
	if total.PeerDeaths != 1 {
		t.Fatalf("PeerDeaths = %d, want 1", total.PeerDeaths)
	}
	if total.LockReclaims < 1 {
		t.Fatalf("LockReclaims = %d, want >= 1 (the held head lock)", total.LockReclaims)
	}
	// The crash fired before the head advanced, so the request is still
	// queued — and with its only consumer dead it drains as an orphan.
	if total.OrphanMsgs < 1 {
		t.Fatalf("OrphanMsgs = %d, want >= 1 (the undelivered request)", total.OrphanMsgs)
	}
	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}

// TestServerCrashReclaimsPendingRef arms the post-unlock crashpoint
// (node unlinked, not yet freed): the dead server holds no lock, but
// the dequeued dummy node would leak from the free pool without the
// sweeper's pending-ref reclaim.
func TestServerCrashReclaimsPendingRef(t *testing.T) {
	plan := fault.Plan{Seed: 7, MaxCrashes: 1}
	plan.Crash[fault.PtBeforeFree] = 1.0
	inj := fault.NewInjector(plan)
	ms := metrics.NewSet()
	// The pending ref is a node of the two-lock queue's pool.
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, QueueKind: queue.KindTwoLock, Metrics: ms, Faults: inj, Recovery: &RecoveryOptions{SweepInterval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	recvPool := sys.ReceiveChannel().q.(interface{ Pool() *shm.Pool }).Pool()
	before := recvPool.FreeCount()

	srv := sys.Server()
	crashed := make(chan struct{})
	go func() {
		defer func() {
			if v := recover(); v != nil {
				if !sys.ReportCrash(v) {
					panic(v)
				}
				close(crashed)
			}
		}()
		_, _ = srv.ServeCtx(context.Background(), nil)
	}()
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := cl.SendCtx(ctx, core.Msg{Op: core.OpEcho})
		res <- err
	}()
	select {
	case <-crashed:
	case <-time.After(5 * time.Second):
		t.Fatal("server never hit the armed crashpoint")
	}
	sys.SweepNow()
	if err := <-res; !errors.Is(err, core.ErrPeerDead) {
		t.Fatalf("client after server crash = %v, want ErrPeerDead", err)
	}
	total := ms.Total()
	if total.OrphanRefs != 1 {
		t.Fatalf("OrphanRefs = %d, want 1 (the unfreed dummy node)", total.OrphanRefs)
	}
	// No lock was held at the crash and the head had already advanced:
	// reclaiming the pending ref must restore the pool exactly.
	if after := recvPool.FreeCount(); after != before {
		t.Fatalf("pool free count %d after recovery, want %d (no leak)", after, before)
	}
	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}

// TestServerCrashReclaimsHeldPayload: a server that dies between
// unlinking a request and claiming its payload (the post-unlock
// crashpoint) takes the request with it, and the lease it carries is
// still tagged with the live client that sent it. Neither the owner
// walk (the tag names a live actor) nor the orphan drain (the message
// is no longer queued) can find it, so the sweeper must reclaim the
// dead actor's in-hand message too, or the block leaks for good.
func TestServerCrashReclaimsHeldPayload(t *testing.T) {
	plan := fault.Plan{Seed: 7, MaxCrashes: 1}
	plan.Crash[fault.PtBeforeFree] = 1.0
	inj := fault.NewInjector(plan)
	ms := metrics.NewSet()
	// The post-unlock crashpoint lies in the two-lock queue's dequeue.
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, QueueKind: queue.KindTwoLock, BlockSlots: 4, Metrics: ms, Faults: inj, Recovery: &RecoveryOptions{SweepInterval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	crashed := make(chan struct{})
	go func() {
		defer func() {
			if v := recover(); v != nil {
				if !sys.ReportCrash(v) {
					panic(v)
				}
				close(crashed)
			}
		}()
		_, _ = srv.ServeCtx(context.Background(), nil)
	}()
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cl.AllocPayload(64)
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _, err := cl.SendPayload(ctx, core.Msg{Op: core.OpWork}, p)
		res <- err
	}()
	select {
	case <-crashed:
	case <-time.After(5 * time.Second):
		t.Fatal("server never hit the armed crashpoint")
	}
	sys.SweepNow()
	if err := <-res; !errors.Is(err, core.ErrPeerDead) {
		t.Fatalf("client after server crash = %v, want ErrPeerDead", err)
	}
	if free, all := sys.Blocks().TotalFree(), int64(sys.Blocks().Capacity()); free != all {
		t.Fatalf("arena free %d / %d after recovery: the dead server's in-hand payload leaked", free, all)
	}
	if got := ms.Total().OrphanBlocks; got != 1 {
		t.Fatalf("OrphanBlocks = %d, want 1 (the in-hand payload)", got)
	}
	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}
