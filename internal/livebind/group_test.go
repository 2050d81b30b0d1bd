package livebind

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/queue"
)

// TestGroupRoutesToHomeShard: with no server running, every request of
// client i, whatever verb sent it, waits on client i's lane of shard
// i mod 3 and on no other lane of the group.
func TestGroupRoutesToHomeShard(t *testing.T) {
	const clients, shards, k = 6, 3, 4
	sys, err := NewSystemGroup(shards, Options{Alg: core.BSW, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	cls := make([]*core.Client, clients)
	for i := range cls {
		if cls[i], err = sys.Client(i); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]int, clients) // queued requests per client
	check := func(phase string) {
		t.Helper()
		for sh := 0; sh < shards; sh++ {
			lanes := sys.grp.reqLanes[sh]
			for j := 0; j < lanes.NumLanes(); j++ {
				if i := sh + j*shards; lanes.Lane(j).Len() != want[i] {
					t.Fatalf("%s: shard %d lane %d (client %d) holds %d, want %d", phase, sh, j, i, lanes.Lane(j).Len(), want[i])
				}
			}
		}
	}
	deadline := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), 5*time.Millisecond)
	}

	for i, cl := range cls {
		if err := cl.SendAsyncCtx(context.Background(), core.Msg{Op: core.OpEcho}); err != nil {
			t.Fatal(err)
		}
		want[i]++
	}
	check("SendAsyncCtx")

	// The connect handshake: enqueued, then its wait for the
	// acknowledgement times out (nobody serves).
	for i := 0; i < shards; i++ {
		ctx, cancel := deadline()
		_, err := cls[i].SendCtx(ctx, core.Msg{Op: core.OpConnect})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("client %d connect = %v, want DeadlineExceeded", i, err)
		}
		want[i]++
	}
	check("connect")

	for i := shards; i < clients; i++ {
		ctx, cancel := deadline()
		_, err := cls[i].SendBatchCtx(ctx, make([]core.Msg, k))
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("client %d batch = %v, want DeadlineExceeded", i, err)
		}
		want[i] += k
	}
	check("SendBatchCtx")

	// Nothing serves the queued requests: Shutdown's drain wait ends on
	// its deadline, then the system closes anyway.
	ctx, cancel := deadline()
	defer cancel()
	_ = sys.Shutdown(ctx)
}

// TestGroupTopologyPartition: the group is a partition, not a mesh.
// Shard s's fan-in holds exactly the request lanes of its own clients
// (i mod shards == s), each client's reply path is one ring written by
// its home shard alone, every other shard's reply port to that client
// refuses, and the whole group is two rings per client.
func TestGroupTopologyPartition(t *testing.T) {
	const clients, shards = 7, 3
	sys, err := NewSystemGroup(shards, Options{Alg: core.BSW, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	srvs, err := sys.ShardServers()
	if err != nil {
		t.Fatal(err)
	}
	cls := make([]*core.Client, clients)
	for i := range cls {
		if cls[i], err = sys.Client(i); err != nil {
			t.Fatal(err)
		}
	}
	rings := make(map[*queue.SPSC]bool)
	lanesSeen := 0
	for sh, srv := range srvs {
		lanes := srv.Rcv.(*shardRecvPort).lanes
		if lanes != sys.grp.reqLanes[sh] {
			t.Fatalf("shard %d receives from another shard's fan-in", sh)
		}
		for j := 0; j < lanes.NumLanes(); j++ {
			i := sh + j*shards
			if i >= clients || cls[i].Srv.(*homePort).lane != lanes.Lane(j) {
				t.Fatalf("shard %d lane %d is not the request lane of its client %d", sh, j, i)
			}
			rings[lanes.Lane(j)] = true
		}
		lanesSeen += lanes.NumLanes()
	}
	if lanesSeen != clients {
		t.Fatalf("shards hold %d request lanes, want one per client (%d)", lanesSeen, clients)
	}
	for i, cl := range cls {
		ring := cl.Rcv.(*Port).ring
		if ring != sys.ReplyChannel(i).Queue() {
			t.Fatalf("client %d reads a ring other than its reply channel's", i)
		}
		rings[ring] = true
		for sh, srv := range srvs {
			switch p := srv.Replies[i].(type) {
			case *Port:
				if sh != i%shards || p.ring != ring {
					t.Fatalf("shard %d writes client %d's replies into the wrong ring", sh, i)
				}
			case foreignPort:
				if sh == i%shards {
					t.Fatalf("home shard %d cannot reply to its client %d", sh, i)
				}
			default:
				t.Fatalf("shard %d reply port to client %d is a %T", sh, i, p)
			}
		}
	}
	if len(rings) != 2*clients {
		t.Fatalf("group has %d rings, want 2 per client (%d)", len(rings), 2*clients)
	}
}

// TestGroupForeignReplyRefused: a reply a shard addresses to a client
// it does not own is refused and dropped with its payload lease, both
// from the scalar Reply and from the batch serve loop (a work callback
// re-addressing a request), and no ring of the group changes.
func TestGroupForeignReplyRefused(t *testing.T) {
	sys, err := NewSystemGroup(2, Options{Alg: core.BSW, Clients: 2, BlockSlots: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv0, err := sys.ShardServer(0)
	if err != nil {
		t.Fatal(err)
	}
	cl0, err := sys.Client(0) // home shard 0; client 1 is homed to shard 1
	if err != nil {
		t.Fatal(err)
	}
	quiet := func(phase string) {
		t.Helper()
		if free, all := sys.Blocks().TotalFree(), sys.Blocks().Capacity(); free != int64(all) {
			t.Fatalf("%s: arena free %d / %d, the refused reply's lease leaked", phase, free, all)
		}
		for i := 0; i < 2; i++ {
			if n := sys.grp.laneOf(i).Len() + sys.ReplyChannel(i).Queue().Len(); n != 0 {
				t.Fatalf("%s: client %d's rings hold %d messages, want 0", phase, i, n)
			}
			if n := sys.ReplyChannel(i).SemCount(); n != 0 {
				t.Fatalf("%s: client %d was woken (%d tokens)", phase, i, n)
			}
		}
	}

	p, err := srv0.AllocPayload(64)
	if err != nil {
		t.Fatal(err)
	}
	m := core.Msg{Op: core.OpEcho}
	m.AttachPayload(p)
	srv0.Reply(1, m)
	quiet("Reply")

	if err := cl0.SendAsyncCtx(context.Background(), core.Msg{Op: core.OpWork}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	worked := make(chan struct{})
	served := make(chan error, 1)
	go func() {
		_, err := srv0.ServeBatchCtx(ctx, func(m *core.Msg) {
			if p, err := srv0.AllocPayload(64); err != nil {
				t.Error(err)
			} else {
				m.AttachPayload(p)
			}
			m.Client = 1
			close(worked)
		}, 8)
		served <- err
	}()
	<-worked
	cancel() // the loop finishes the burst, then its next receive ends
	if err := <-served; !errors.Is(err, context.Canceled) {
		t.Fatalf("ServeBatchCtx = %v, want context.Canceled", err)
	}
	quiet("ServeBatchCtx")
	if err := sys.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// runGroupEcho is the shared harness: shards ServeBatchCtx on their own
// goroutines, every client sends `rounds` batches of k echo requests
// and checks it got back exactly its own sequences, in the order sent
// (one home shard answers each client through one FIFO ring).
func runGroupEcho(t *testing.T, sys *System, clients, rounds, k int) (served int64) {
	t.Helper()
	srvs, err := sys.ShardServers()
	if err != nil {
		t.Fatal(err)
	}
	var total atomic.Int64
	var wg sync.WaitGroup
	for _, srv := range srvs {
		wg.Add(1)
		go func(sv *core.Server) {
			defer wg.Done()
			served, _ := sv.ServeBatchCtx(context.Background(), nil, k)
			total.Add(served)
		}(srv)
	}
	var cwg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cwg.Add(1)
		go func(id int) {
			defer cwg.Done()
			cl, err := sys.Client(id)
			if err != nil {
				t.Error(err)
				return
			}
			msgs := make([]core.Msg, k)
			for r := 0; r < rounds; r++ {
				for j := range msgs {
					msgs[j] = core.Msg{Op: core.OpEcho, Seq: int32(r*k + j)}
				}
				out, _ := cl.SendBatchCtx(context.Background(), msgs)
				if len(out) != k {
					t.Errorf("client %d round %d: %d replies, want %d", id, r, len(out), k)
					return
				}
				for j, m := range out {
					if m.Client != int32(id) || m.Seq != int32(r*k+j) {
						t.Errorf("client %d round %d: reply %d is %+v, want seq %d", id, r, j, m, r*k+j)
					}
				}
			}
		}(i)
	}
	cwg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	wg.Wait()
	return total.Load()
}

// TestGroupEchoBatch: end-to-end vectored echo over a server group, for
// the two sleep-capable protocols.
func TestGroupEchoBatch(t *testing.T) {
	const clients, shards, rounds, k = 4, 2, 8, 16
	for _, alg := range []core.Algorithm{core.BSW, core.BSLS} {
		t.Run(alg.String(), func(t *testing.T) {
			sys, err := NewSystemGroup(shards, Options{Alg: alg, Clients: clients})
			if err != nil {
				t.Fatal(err)
			}
			served := runGroupEcho(t, sys, clients, rounds, k)
			if want := int64(clients * rounds * k); served != want {
				t.Fatalf("shards served %d, want %d", served, want)
			}
		})
	}
}

// TestGroupBatchTokenConservation: after a quiescent batched run every
// client semaphore holds at most one surplus token (the bounded
// carry-over the TAS-drain absorbs on the next dequeue), never an
// unbounded leak — the exact-V-conservation bar of DESIGN.md §10.
func TestGroupBatchTokenConservation(t *testing.T) {
	const clients, shards, rounds, k = 4, 2, 10, 8
	sys, err := NewSystemGroup(shards, Options{Alg: core.BSW, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	srvs, err := sys.ShardServers()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, srv := range srvs {
		wg.Add(1)
		go func(sv *core.Server) { defer wg.Done(); sv.ServeBatchCtx(context.Background(), nil, k) }(srv)
	}
	var cwg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cwg.Add(1)
		go func(id int) {
			defer cwg.Done()
			cl, err := sys.Client(id)
			if err != nil {
				t.Error(err)
				return
			}
			msgs := make([]core.Msg, k)
			for r := 0; r < rounds; r++ {
				for j := range msgs {
					msgs[j] = core.Msg{Op: core.OpEcho, Seq: int32(r*k + j)}
				}
				if out, _ := cl.SendBatchCtx(context.Background(), msgs); len(out) != k {
					t.Errorf("client %d: %d replies, want %d", id, len(out), k)
					return
				}
			}
		}(i)
	}
	cwg.Wait()
	// Quiescent: every reply consumed, no send in flight.
	for i := 0; i < clients; i++ {
		if n := sys.ReplyChannel(i).SemCount(); n < 0 || n > 1 {
			t.Errorf("client %d reply sem = %d tokens at quiescence, want 0 or 1", i, n)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	wg.Wait()
}

// TestGroupSendBatchCtxCancelStress fires batches under aggressive
// deadlines (many cancel mid-batch, leaving reply lag), then checks the
// lag protocol restores exact accounting: a final unhurried batch
// succeeds in full and the semaphores end bounded.
func TestGroupSendBatchCtxCancelStress(t *testing.T) {
	const clients, shards, k = 4, 2, 8
	sys, err := NewSystemGroup(shards, Options{Alg: core.BSW, Clients: clients,
		SleepScale: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	srvs, err := sys.ShardServers()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, srv := range srvs {
		wg.Add(1)
		go func(sv *core.Server) { defer wg.Done(); sv.ServeBatchCtx(context.Background(), nil, k) }(srv)
	}
	var cwg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cwg.Add(1)
		go func(id int) {
			defer cwg.Done()
			cl, err := sys.Client(id)
			if err != nil {
				t.Error(err)
				return
			}
			msgs := make([]core.Msg, k)
			for r := 0; r < 30; r++ {
				for j := range msgs {
					msgs[j] = core.Msg{Op: core.OpEcho, Seq: int32(r*k + j)}
				}
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(r%5)*20*time.Microsecond)
				_, _ = cl.SendBatchCtx(ctx, msgs) // cancellation mid-batch is the point
				cancel()
			}
			for j := range msgs {
				msgs[j] = core.Msg{Op: core.OpEcho, Seq: int32(1000 + j)}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			out, err := cl.SendBatchCtx(ctx, msgs)
			if err != nil {
				t.Errorf("client %d final batch: %v", id, err)
				return
			}
			if len(out) != k {
				t.Errorf("client %d final batch: %d replies, want %d", id, len(out), k)
			}
		}(i)
	}
	cwg.Wait()
	for i := 0; i < clients; i++ {
		if n := sys.ReplyChannel(i).SemCount(); n < 0 || n > 1 {
			t.Errorf("client %d reply sem = %d tokens after cancel stress, want 0 or 1", i, n)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	wg.Wait()
}

// TestGroupShardKill kills one shard of a two-shard group: the hash-
// pinned client of the dead shard must unblock from its parked wait
// with ErrPeerDead (and fail fast afterwards), the other shard's client
// must keep completing batches, and the dead shard's lanes must drain
// via the sweeper's orphan pass so Shutdown's drain-wait terminates.
func TestGroupShardKill(t *testing.T) {
	const clients, shards, k = 2, 2, 4
	sys, err := NewSystemGroup(shards, Options{Alg: core.BSW, Clients: clients, Recovery: &RecoveryOptions{SweepInterval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	srvs, err := sys.ShardServers()
	if err != nil {
		t.Fatal(err)
	}
	shard0ID := srvs[0].A.(*Actor).ID

	// Shard 1 serves normally; shard 0 never runs (its clients park).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); srvs[1].ServeBatchCtx(context.Background(), nil, k) }()

	cl0, err := sys.Client(0) // home shard 0
	if err != nil {
		t.Fatal(err)
	}
	cl1, err := sys.Client(1) // home shard 1
	if err != nil {
		t.Fatal(err)
	}
	mkBatch := func(base int) []core.Msg {
		msgs := make([]core.Msg, k)
		for j := range msgs {
			msgs[j] = core.Msg{Op: core.OpEcho, Seq: int32(base + j)}
		}
		return msgs
	}

	res := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := cl0.SendBatchCtx(ctx, mkBatch(0))
		res <- err
	}()
	time.Sleep(20 * time.Millisecond) // requests enqueued, client parked

	sys.KillActor(shard0ID)
	sys.SweepNow()

	select {
	case err := <-res:
		if !errors.Is(err, core.ErrPeerDead) {
			t.Fatalf("parked batch after shard death = %v, want ErrPeerDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client of dead shard still parked after sweep")
	}
	if !sys.ShardDead(0) || sys.ShardDead(1) {
		t.Fatalf("ShardDead = (%v,%v), want (true,false)", sys.ShardDead(0), sys.ShardDead(1))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	if _, err := cl0.SendBatchCtx(ctx, mkBatch(100)); !errors.Is(err, core.ErrPeerDead) {
		t.Fatalf("new send to dead shard = %v, want ErrPeerDead", err)
	}
	cancel()

	// The surviving shard keeps serving its own clients.
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	out, err := cl1.SendBatchCtx(ctx, mkBatch(200))
	cancel()
	if err != nil || len(out) != k {
		t.Fatalf("survivor client batch = (%d replies, %v), want (%d, nil)", len(out), err, k)
	}

	// Dead shard's lanes drained by the orphan pass -> drain-wait ends.
	if !sys.ShardChannel(0).Queue().Empty() {
		t.Fatal("dead shard's lanes not drained by recovery")
	}
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	wg.Wait()
}

// TestGroupModeGuards: the combinators that assume the scalar topology
// must refuse (or panic, for error-less Server) on a sharded system,
// and group-mode configuration errors carry the typed sentinels.
func TestGroupModeGuards(t *testing.T) {
	if _, err := NewSystem(Options{Alg: core.BSW, Clients: 2, Shards: 2, Duplex: true}); !errors.Is(err, ErrBadOption) {
		t.Fatalf("Shards+Duplex = %v, want ErrBadOption", err)
	}
	if _, err := NewSystem(Options{Alg: core.BSW, Clients: 2, Shards: 2, Throttle: 1}); !errors.Is(err, ErrBadOption) {
		t.Fatalf("Shards+Throttle = %v, want ErrBadOption", err)
	}
	if _, err := NewSystemGroup(0, Options{Alg: core.BSW, Clients: 2}); !errors.Is(err, ErrBadOption) {
		t.Fatalf("NewSystemGroup(0) = %v, want ErrBadOption", err)
	}
	// A shard with no clients would have no lanes to serve.
	if _, err := NewSystemGroup(3, Options{Alg: core.BSW, Clients: 2}); !errors.Is(err, ErrBadOption) {
		t.Fatalf("3 shards for 2 clients = %v, want ErrBadOption", err)
	}
	if _, err := NewSystem(Options{Alg: core.BSW, Clients: 2, Shards: 2, MPMCReplies: true}); !errors.Is(err, ErrSPSCTopology) {
		t.Fatalf("Shards+MPMCReplies = %v, want ErrSPSCTopology", err)
	}
	sys, err := NewSystemGroup(2, Options{Alg: core.BSW, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.WorkerPool(2); !errors.Is(err, ErrBadOption) {
		t.Fatalf("WorkerPool = %v, want ErrBadOption", err)
	}
	if _, err := sys.PoolClient(0); !errors.Is(err, ErrBadOption) {
		t.Fatalf("PoolClient = %v, want ErrBadOption", err)
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("Server() on a sharded system did not panic")
			}
		}()
		sys.Server()
	}()
	if _, err := sys.ShardServer(2); err == nil {
		t.Fatal("out-of-range ShardServer did not error")
	}
	if _, err := sys.ShardServer(0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ShardServer(0); !errors.Is(err, ErrSPSCTopology) {
		t.Fatalf("double ShardServer = %v, want ErrSPSCTopology", err)
	}
	if sys.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", sys.Shards())
	}
}

// TestBatchSingleServer: the vectored API is not shard-only — on the
// scalar topology SendBatchCtx/ServeBatchCtx move k messages per wake over
// the shared receive queue, and replies come back in order.
func TestBatchSingleServer(t *testing.T) {
	const rounds, k = 6, 16
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	done := make(chan int64, 1)
	go func() { n, _ := srv.ServeBatchCtx(context.Background(), nil, k); done <- n }()
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]core.Msg, k)
	for r := 0; r < rounds; r++ {
		for j := range msgs {
			msgs[j] = core.Msg{Op: core.OpEcho, Seq: int32(r*k + j)}
		}
		out, _ := cl.SendBatchCtx(context.Background(), msgs)
		if len(out) != k {
			t.Fatalf("round %d: %d replies, want %d", r, len(out), k)
		}
		for j, m := range out {
			if m.Seq != int32(r*k+j) {
				t.Fatalf("round %d: reply %d has seq %d, want %d (single server preserves order)", r, j, m.Seq, r*k+j)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if served := <-done; served != rounds*k {
		t.Fatalf("served %d, want %d", served, rounds*k)
	}
}

// TestBatchOversizedDeadlockFree sends one batch far larger than the
// request and reply queues combined: progress then requires the client
// to interleave reply draining with request feeding, which is exactly
// what SendBatchCtx's full-queue path does. Under context.Background()
// it naps the flat sleep(1) on a full queue, so the system compresses it to a
// millisecond: unscaled, a handful of naps took the run past the
// deadlock bound without any deadlock.
func TestBatchOversizedDeadlockFree(t *testing.T) {
	const k = 64
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, QueueCap: 8, SleepScale: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	go srv.ServeBatchCtx(context.Background(), nil, 8)
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]core.Msg, k)
	for j := range msgs {
		msgs[j] = core.Msg{Op: core.OpEcho, Seq: int32(j)}
	}
	outc := make(chan []core.Msg, 1)
	go func() { out, _ := cl.SendBatchCtx(context.Background(), msgs); outc <- out }()
	select {
	case out := <-outc:
		if len(out) != k {
			t.Fatalf("%d replies, want %d", len(out), k)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("oversized batch deadlocked")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}

// TestReplyBatchCtxRunAudit: ReplyBatchCtx moves each run of replies to
// one client with a single vectored enqueue, yet still audits every
// message — a run longer than the client's outstanding requests
// delivers exactly the replies owed and reports ErrDoubleReply for the
// rest, and a later run to another client is still delivered.
func TestReplyBatchCtxRunAudit(t *testing.T) {
	ctx := context.Background()
	sys, err := NewSystemGroup(1, Options{Alg: core.BSW, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown(ctx)
	srv, err := sys.ShardServer(0)
	if err != nil {
		t.Fatal(err)
	}
	cls := make([]*core.Client, 2)
	for i := range cls {
		if cls[i], err = sys.Client(i); err != nil {
			t.Fatal(err)
		}
	}
	for i, owed := range []int{2, 1} {
		for j := 0; j < owed; j++ {
			if err := cls[i].SendAsyncCtx(ctx, core.Msg{Op: core.OpEcho, Seq: int32(j)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	buf := make([]core.Msg, 8)
	if n, err := srv.ReceiveBatchCtx(ctx, buf); err != nil || n != 3 {
		t.Fatalf("ReceiveBatchCtx = %d, %v; want the 3 queued requests", n, err)
	}
	batch := []core.Reply{
		{Client: 0, Msg: core.Msg{Seq: 0}},
		{Client: 0, Msg: core.Msg{Seq: 1}},
		{Client: 0, Msg: core.Msg{Seq: 2}}, // client 0 is owed only two
		{Client: 1, Msg: core.Msg{Seq: 0}},
	}
	if err := srv.ReplyBatchCtx(ctx, batch); !errors.Is(err, core.ErrDoubleReply) {
		t.Fatalf("ReplyBatchCtx with a surplus reply = %v, want ErrDoubleReply", err)
	}
	for i, want := range []int{2, 1} {
		for j := 0; j < want; j++ {
			m, err := cls[i].RecvReplyCtx(ctx)
			if err != nil || m.Seq != int32(j) {
				t.Fatalf("client %d reply %d = %+v, %v", i, j, m, err)
			}
		}
		if !cls[i].Rcv.Empty() {
			t.Fatalf("client %d got more replies than it was owed", i)
		}
	}
	if err := srv.ReplyCtx(ctx, 0, core.Msg{}); !errors.Is(err, core.ErrDoubleReply) {
		t.Fatalf("ReplyCtx after every request was answered = %v, want ErrDoubleReply", err)
	}
}

// BenchmarkGroupBatchRoundTrip prices the vectored serve path without
// the repository benchmark: two shards serve with ServeBatchCtx while
// four clients, each on its own goroutine, send batches of 16 with
// SendBatchCtx. One op is one batch; ns/msg divides the elapsed time by
// the messages carried. Run it on one core with
// `go test -run '^$' -bench GroupBatch -cpu 1 ./internal/livebind`.
func BenchmarkGroupBatchRoundTrip(b *testing.B) {
	const shards, clients, batch = 2, 4, 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sys, err := NewSystemGroup(shards, Options{Alg: core.BSW, Clients: clients})
	if err != nil {
		b.Fatal(err)
	}
	srvs, err := sys.ShardServers()
	if err != nil {
		b.Fatal(err)
	}
	var served sync.WaitGroup
	for _, srv := range srvs {
		served.Add(1)
		go func() {
			defer served.Done()
			srv.ServeBatchCtx(ctx, nil, batch)
		}()
	}
	cls := make([]*core.Client, clients)
	for i := range cls {
		if cls[i], err = sys.Client(i); err != nil {
			b.Fatal(err)
		}
	}
	var left atomic.Int64
	left.Store(int64(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, cl := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			msgs := make([]core.Msg, batch)
			for left.Add(-1) >= 0 {
				for i := range msgs {
					msgs[i] = core.Msg{Op: core.OpEcho, Seq: int32(i)}
				}
				if out, err := cl.SendBatchCtx(ctx, msgs); err != nil || len(out) != batch {
					b.Errorf("batch: %d replies, %v", len(out), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/msg")
	if err := sys.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
	served.Wait()
}
