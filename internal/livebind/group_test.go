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
// client i, whatever verb sent it, waits on lane i of shard i mod 3 and
// on no other lane of the group.
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
			for i := 0; i < clients; i++ {
				n := 0
				if sh == i%shards {
					n = want[i]
				}
				if got := sys.grp.reqLanes[sh].Lane(i).Len(); got != n {
					t.Fatalf("%s: shard %d lane %d holds %d, want %d", phase, sh, i, got, n)
				}
			}
		}
	}
	deadline := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), 5*time.Millisecond)
	}

	for i, cl := range cls {
		cl.SendAsync(core.Msg{Op: core.OpEcho})
		want[i]++
	}
	check("SendAsync")

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
	check("SendBatch")

	// Nothing serves the queued requests: Shutdown's drain wait ends on
	// its deadline, then the system closes anyway.
	ctx, cancel := deadline()
	defer cancel()
	_ = sys.Shutdown(ctx)
}

// runGroupEcho is the shared harness: shards ServeBatch on their own
// goroutines, every client sends `rounds` batches of k echo requests
// and checks it got back exactly its own sequence set (stealing may
// reorder replies, so the check is a multiset, not a sequence).
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
			total.Add(sv.ServeBatch(nil, k))
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
				out := cl.SendBatch(msgs)
				if len(out) != k {
					t.Errorf("client %d round %d: %d replies, want %d", id, r, len(out), k)
					return
				}
				seen := make(map[int32]bool, k)
				for _, m := range out {
					if m.Client != int32(id) {
						t.Errorf("client %d got a reply addressed to %d", id, m.Client)
					}
					if seen[m.Seq] {
						t.Errorf("client %d round %d: duplicate seq %d", id, r, m.Seq)
					}
					seen[m.Seq] = true
				}
				for j := 0; j < k; j++ {
					if !seen[int32(r*k+j)] {
						t.Errorf("client %d round %d: missing seq %d", id, r, r*k+j)
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

// TestGroupStealTakesDeepestAndRewakes drives a shard's receive port by
// hand: with its own lanes dry it must steal a bounded batch from the
// deepest sibling, and — because the victim may have parked while the
// steal held its lane lock — re-wake the victim whenever its lanes are
// left non-empty.
func TestGroupStealTakesDeepestAndRewakes(t *testing.T) {
	sys, err := NewSystemGroup(2, Options{Alg: core.BSW, Clients: 2,
		StealBatch: 4, StealThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ShardServer(0); err != nil {
		t.Fatal(err)
	}
	srv1, err := sys.ShardServer(1)
	if err != nil {
		t.Fatal(err)
	}
	g := sys.grp
	for j := 0; j < 6; j++ {
		if !g.reqLanes[0].Lane(0).Enqueue(core.Msg{Op: core.OpEcho, Seq: int32(j)}) {
			t.Fatal("seed enqueue failed")
		}
	}
	// Simulate a parked victim: awake false, no token. The steal must
	// restore the token since it leaves 2 messages behind.
	g.recvs[0].awake.Store(false)

	var seqs []int32
	for j := 0; j < 4; j++ {
		m, ok := srv1.Rcv.TryDequeue()
		if !ok {
			t.Fatalf("dequeue %d failed (steal batch should hold 4)", j)
		}
		seqs = append(seqs, m.Seq)
	}
	if got := g.recvs[0].SemCount(); got != 1 {
		t.Fatalf("victim sem count after partial steal = %d, want 1 (residue re-wake)", got)
	}
	for j := 4; j < 6; j++ {
		m, ok := srv1.Rcv.TryDequeue()
		if !ok {
			t.Fatalf("dequeue %d failed (second steal should take the rest)", j)
		}
		seqs = append(seqs, m.Seq)
	}
	if _, ok := srv1.Rcv.TryDequeue(); ok {
		t.Fatal("dequeue fabricated a message")
	}
	for j, s := range seqs {
		if s != int32(j) {
			t.Fatalf("stolen sequence %v not FIFO", seqs)
		}
	}
	// Victim drained: no further re-wake owed.
	if got := g.recvs[0].SemCount(); got != 1 {
		t.Fatalf("victim sem count after full drain = %d, want still 1 (no spurious V)", got)
	}
}

// TestGroupStealUnderRace skews all the load onto shard 0 (hash-pinned
// even clients plus a slow work function) while shard 1 runs hot; run
// under -race this exercises owner/thief lane handoff and the stolen
// reply path. Correctness bar: every client gets exactly its own
// replies, nothing lost, nothing duplicated.
func TestGroupStealUnderRace(t *testing.T) {
	const clients, shards, rounds, k = 4, 2, 6, 8
	sys, err := NewSystemGroup(shards, Options{Alg: core.BSW, Clients: clients,
		StealBatch: 4, StealThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	srvs, err := sys.ShardServers()
	if err != nil {
		t.Fatal(err)
	}
	var total atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // shard 0: slow per-message work -> backlog builds
		defer wg.Done()
		total.Add(srvs[0].ServeBatch(func(*core.Msg) { time.Sleep(50 * time.Microsecond) }, k))
	}()
	go func() { // shard 1: fast, steals shard 0's backlog between its own
		defer wg.Done()
		total.Add(srvs[1].ServeBatch(func(*core.Msg) { time.Sleep(50 * time.Microsecond) }, k))
	}()
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
					msgs[j] = core.Msg{Op: core.OpWork, Seq: int32(r*k + j)}
				}
				out := cl.SendBatch(msgs)
				if len(out) != k {
					t.Errorf("client %d round %d: %d replies, want %d", id, r, len(out), k)
					return
				}
				seen := make(map[int32]bool, k)
				for _, m := range out {
					if m.Client != int32(id) || seen[m.Seq] {
						t.Errorf("client %d: bad reply %+v", id, m)
					}
					seen[m.Seq] = true
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
	if want := int64(clients * rounds * k); total.Load() != want {
		t.Fatalf("served %d, want %d", total.Load(), want)
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
		go func(sv *core.Server) { defer wg.Done(); sv.ServeBatch(nil, k) }(srv)
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
				if out := cl.SendBatch(msgs); len(out) != k {
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
		go func(sv *core.Server) { defer wg.Done(); sv.ServeBatch(nil, k) }(srv)
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
	sys, err := NewSystemGroup(shards, Options{Alg: core.BSW, Clients: clients},
		WithNoSteal(), // strict lane ownership: death strands exactly the dead shard's clients
		WithRecovery(RecoveryOptions{SweepInterval: time.Hour}))
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
	go func() { defer wg.Done(); srvs[1].ServeBatch(nil, k) }()

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
	if _, err := NewSystem(Options{Alg: core.BSW, Clients: 2, Shards: 2},
		WithReplyKind(queue.KindRing)); !errors.Is(err, ErrSPSCTopology) {
		t.Fatalf("Shards+ReplyKind = %v, want ErrSPSCTopology", err)
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
// scalar topology SendBatch/ServeBatch move k messages per wake over
// the shared receive queue, and replies come back in order (no
// stealing to reorder them).
func TestBatchSingleServer(t *testing.T) {
	const rounds, k = 6, 16
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	done := make(chan int64, 1)
	go func() { done <- srv.ServeBatch(nil, k) }()
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]core.Msg, k)
	for r := 0; r < rounds; r++ {
		for j := range msgs {
			msgs[j] = core.Msg{Op: core.OpEcho, Seq: int32(r*k + j)}
		}
		out := cl.SendBatch(msgs)
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
// what SendBatch's full-queue path does. The plain SendBatch naps the
// flat sleep(1) on a full queue, so the system compresses it to a
// millisecond: unscaled, a handful of naps took the run past the
// deadlock bound without any deadlock.
func TestBatchOversizedDeadlockFree(t *testing.T) {
	const k = 64
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, QueueCap: 8, SleepScale: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	go srv.ServeBatch(nil, 8)
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]core.Msg, k)
	for j := range msgs {
		msgs[j] = core.Msg{Op: core.OpEcho, Seq: int32(j)}
	}
	outc := make(chan []core.Msg, 1)
	go func() { outc <- cl.SendBatch(msgs) }()
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
