package workload

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
	"ulipc/internal/queue"
)

// The overload-kill chaos cell: the overload doctrine and the recovery
// layer working the same incident. An open-loop blast drives the system
// past its high-water mark — admission rejects, the server sheds
// expired messages — and in the middle of that storm one client is
// killed (the in-process analogue of SIGKILL: no disconnect, no lease
// release, no reply drain). The cell passes when the two subsystems
// compose: the sweeper's audit holds with sheds still in flight —
// the dead client's stranded payload lease is reclaimed by the owner
// walk, its undrained reply queue (leases riding every message) is
// orphan-drained, replies the server sends it afterwards are dropped
// through the lease-conserving Reply path — and after teardown every
// node and block is back in its pool, while the survivors' overload
// machinery kept running (nonzero sheds AND rejects, no deadlock).

// Overload parameters of the kill cell. Fixed rather than configured:
// the cell asserts composition, not a tuning point.
const (
	okHighWater = 48                   // request-queue admission mark
	okRetryCap  = 16                   // client retry budget
	okDeadline  = 1 * time.Millisecond // per-message deadline

	// okService is the server's minimum time per request. It makes the
	// server slower than the blast on any host: a queue at the high-water
	// mark holds 48 × 50µs = 2.4 ms of work, more than twice the
	// deadline, so the back of every full queue expires and is shed.
	// Without it an echo costs about a microsecond, the server drains a
	// full queue well inside the deadline, and the cell sheds only when
	// the scheduler happens to stall the server for a millisecond.
	okService = 50 * time.Microsecond
)

// RunChaosOverloadKill executes one overload-kill cell. cfg.Msgs is the
// per-client send attempt count (full tilt, no pacing, against a server
// held to okService per request, so the offered rate is past capacity
// on any host); the victim is client 0, killed after half its script.
func RunChaosOverloadKill(cfg ChaosConfig) (ChaosResult, error) {
	if err := cfg.defaults(); err != nil {
		return ChaosResult{}, err
	}
	if cfg.Clients < 2 {
		return ChaosResult{}, fmt.Errorf("workload: overload-kill cell needs at least 2 clients (a victim and a survivor)")
	}
	ms := metrics.NewSet()
	maxSpin, _ := tuneFor(cfg.Alg, cfg.MaxSpin, 0)
	blockSlots := 0
	if cfg.PaySize > 0 {
		blockSlots = 4 * (cfg.Clients + 1)
		if blockSlots < 32 {
			blockSlots = 32
		}
	}
	// Two-lock queues on both legs (as in RunChaosCell) so every pool is
	// auditable after teardown.
	sys, err := livebind.NewSystem(livebind.Options{
		Alg:        cfg.Alg,
		MaxSpin:    maxSpin,
		Clients:    cfg.Clients,
		QueueCap:   cfg.QueueCap,
		QueueKind:  queue.KindTwoLock,
		BlockSlots: blockSlots,
		SleepScale: time.Millisecond,
		Metrics:    ms,
	},
		livebind.WithReplyKind(queue.KindTwoLock),
		livebind.WithAdmission(livebind.Admission{HighWater: okHighWater, RetryCap: okRetryCap}),
		livebind.WithRecovery(livebind.RecoveryOptions{SweepInterval: cfg.SweepInterval}),
	)
	if err != nil {
		return ChaosResult{}, err
	}

	label := fmt.Sprintf("chaos/overloadkill/%s/%dc/seed%d", cfg.Alg, cfg.Clients, cfg.Seed)
	if cfg.PaySize > 0 {
		label += fmt.Sprintf("/p%d", cfg.PaySize)
	}
	res := ChaosResult{
		Label:   label,
		Alg:     cfg.Alg.String(),
		Clients: cfg.Clients,
		Seed:    cfg.Seed,
		PaySize: cfg.PaySize,
	}
	rootCtx, cancel := context.WithTimeout(context.Background(), cfg.Watchdog)
	defer cancel()

	var (
		completed atomic.Int64
		mu        sync.Mutex
		deadlock  bool
		hardErrs  []string
	)
	noteErr := func(format string, args ...any) {
		mu.Lock()
		if len(hardErrs) < 8 {
			hardErrs = append(hardErrs, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	// The shared run epoch and shed policy, exactly as the open-loop
	// runner wires them: deadlines ride in Val, control ops are exempt.
	epoch := time.Now()
	nowNs := func() int64 { return time.Since(epoch).Nanoseconds() }
	dlNs := okDeadline.Nanoseconds()
	srv := sys.Server()
	srv.Shed = &core.ShedPolicy{
		Deadline: func(m core.Msg) (int64, bool) {
			if m.Op != core.OpEcho && m.Op != core.OpWork {
				return 0, false
			}
			return int64(m.Val), true
		},
		Now: nowNs,
	}
	work := func(m *core.Msg) {
		time.Sleep(okService)
		if cfg.PaySize == 0 {
			return
		}
		p, err := srv.Payload(*m)
		if err != nil {
			m.ClearBlock()
			return
		}
		m.AttachPayload(p)
	}
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		if _, err := srv.ServeCtx(rootCtx, work); err != nil {
			noteErr("server: %v", err)
		}
	}()

	// blast is the shared client body: full-tilt deadline-stamped sends
	// with opportunistic reply draining (primed-awake collector, as in
	// openLoopClient). It returns early — abandoning everything in
	// flight — when stopAt sends have gone out (the victim's death).
	blast := func(id int, cl *core.Client, stopAt int) {
		cl.Rcv.SetAwake(true)
		drain := func() {
			for {
				m, ok := cl.Rcv.TryDequeue()
				if !ok {
					return
				}
				if m.Op != core.OpEcho && m.Op != core.OpWork {
					continue
				}
				if m.HasBlock() {
					if p, err := cl.Payload(m); err == nil {
						_ = p.Release()
					}
				}
				completed.Add(1)
			}
		}
		for j := 0; j < cfg.Msgs && rootCtx.Err() == nil; j++ {
			if j == stopAt {
				return // killed mid-overload: no drain, no frees, no goodbye
			}
			drain()
			m := core.Msg{Op: core.OpEcho, Seq: int32(j), Val: float64(nowNs() + dlNs)}
			var payRef uint32
			hasPay := false
			if cfg.PaySize > 0 {
				p, err := cl.AllocPayload(cfg.PaySize)
				if err != nil {
					continue // exhausted arena: the arrival is lost at the allocator
				}
				m.Op = core.OpWork
				payRef, hasPay = p.Ref(), true
				m.AttachPayload(p)
			}
			switch err := cl.SendAsyncCtx(rootCtx, m); {
			case err == nil:
			case errors.Is(err, core.ErrOverload):
				if hasPay {
					_ = cl.Blocks.Free(payRef)
				}
			default:
				if hasPay {
					_ = cl.Blocks.Free(payRef)
				}
				if rootCtx.Err() == nil {
					noteErr("client%d: send: %v", id, err)
				}
				return
			}
		}
		// Survivors collect their backlog until the request queue drains
		// and the reply side stays quiet past the producer's backoff
		// ceiling (same settle rule as the open-loop grace drain).
		depth := func() int {
			if d, ok := cl.Srv.(core.DepthPort); ok {
				return d.Depth()
			}
			return 0
		}
		const settle = 8*int64(time.Millisecond) + 4_000_000
		quietSince := int64(-1)
		for rootCtx.Err() == nil {
			before := completed.Load()
			drain()
			if completed.Load() > before || depth() > 0 {
				quietSince = -1
			} else {
				now := nowNs()
				if quietSince < 0 {
					quietSince = now
				} else if now-quietSince > settle {
					return
				}
			}
			time.Sleep(500 * time.Microsecond)
		}
	}

	const victim = 0
	victimCl, err := sys.Client(victim)
	if err != nil {
		return res, err
	}
	victimID := victimCl.A.(*livebind.Actor).ID
	victimGone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(victimGone)
		// The stranded lease: allocated, never sent, never freed — only
		// the sweeper's owner walk can return it.
		if cfg.PaySize > 0 {
			if _, err := victimCl.AllocPayload(cfg.PaySize); err != nil {
				noteErr("victim: stranded-lease alloc: %v", err)
			}
		}
		blast(victim, victimCl, cfg.Msgs/2)
		// Hold the corpse until the storm is real: the kill must land
		// with sheds in flight, so wait (bounded — the final Sheds==0
		// check reports a cell that never overloaded) for the server to
		// have shed at least once while the survivors keep blasting.
		until := time.Now().Add(2 * time.Second)
		for rootCtx.Err() == nil && ms.Total().Sheds == 0 && time.Now().Before(until) {
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for i := 1; i < cfg.Clients; i++ {
		cl, err := sys.Client(i)
		if err != nil {
			cancel()
			wg.Wait()
			swg.Wait()
			return res, err
		}
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			blast(i, cl, -1)
		}(i, cl)
	}

	// The kill lands while the survivors are still blasting: mark the
	// victim dead and force a synchronous sweep, so recovery (owner
	// walk, orphan drains, peer-death marking) runs with the overload
	// machinery live around it.
	<-victimGone
	sys.KillActor(victimID)
	sys.SweepNow()

	joined := make(chan struct{})
	go func() { wg.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(cfg.Watchdog + 5*time.Second):
		mu.Lock()
		deadlock = true
		hardErrs = append(hardErrs, "clients still blocked past watchdog+grace")
		mu.Unlock()
	}
	if rootCtx.Err() != nil {
		mu.Lock()
		deadlock = true
		mu.Unlock()
	}

	// A final sweep with everything quiesced: whatever the server sent
	// the dead victim after the kill is orphaned in its reply queue now.
	sys.SweepNow()
	if !sys.ReplyChannel(victim).Queue().Empty() {
		noteErr("victim's reply queue not orphan-drained by the sweeper")
	}

	shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
	serr := sys.Shutdown(shutCtx)
	shutCancel()
	if serr != nil && !errors.Is(serr, context.DeadlineExceeded) {
		noteErr("shutdown: %v", serr)
	}
	cancel()
	sdone := make(chan struct{})
	go func() { swg.Wait(); close(sdone) }()
	select {
	case <-sdone:
	case <-time.After(5 * time.Second):
		mu.Lock()
		deadlock = true
		hardErrs = append(hardErrs, "server still blocked after shutdown")
		mu.Unlock()
	}

	// Pool and lease audits, identical in spirit to RunChaosCell's:
	// drain teardown leftovers claim-freeing riding leases, then every
	// two-lock node pool and the whole slab arena must be whole.
	pool := sys.Blocks()
	audit := func(ch *livebind.Channel) {
		tl, ok := ch.Queue().(*queue.TwoLock)
		if !ok {
			return
		}
		if pool != nil {
			const auditOwner = ^uint32(0)
			queue.DrainFunc(tl, func(m core.Msg) {
				if !m.HasBlock() {
					return
				}
				if ref, _ := m.Block(); pool.ClaimGen(ref, m.BlockGen(), auditOwner) {
					_ = pool.Free(ref)
				}
			})
		} else {
			queue.Drain(tl)
		}
		res.PoolLeaked += int64(tl.Cap()) - tl.Pool().FreeCount()
	}
	audit(sys.ReceiveChannel())
	for i := 0; i < cfg.Clients; i++ {
		audit(sys.ReplyChannel(i))
	}
	if pool != nil && !deadlock {
		res.BlockLeaked = int64(pool.Capacity()) - pool.TotalFree()
	}

	total := ms.Total()
	res.Completed = completed.Load()
	res.PeerDeaths = total.PeerDeaths
	res.LockReclaims = total.LockReclaims
	res.OrphanMsgs = total.OrphanMsgs
	res.OrphanRefs = total.OrphanRefs
	res.OrphanBlocks = total.OrphanBlocks
	res.WakeRescues = total.WakeRescues
	res.Sheds = total.Sheds
	res.Overloads = total.Overloads
	res.Deadlocked = deadlock

	var fail []string
	if deadlock {
		fail = append(fail, "deadlocked: watchdog expired with participants blocked")
	}
	if res.PoolLeaked != 0 {
		fail = append(fail, fmt.Sprintf("pool leak: %d refs unaccounted for", res.PoolLeaked))
	}
	if res.BlockLeaked != 0 {
		fail = append(fail, fmt.Sprintf("payload leak: %d blocks unaccounted for", res.BlockLeaked))
	}
	if res.Sheds == 0 {
		fail = append(fail, "no sheds: the cell never reached overload, so it proves nothing")
	}
	if res.Overloads == 0 {
		fail = append(fail, "no admission rejects: the cell never reached overload")
	}
	if res.PeerDeaths == 0 {
		fail = append(fail, "victim's death never recovered")
	}
	if cfg.PaySize > 0 && res.OrphanBlocks == 0 {
		fail = append(fail, "stranded lease not reclaimed by the owner walk")
	}
	fail = append(fail, hardErrs...)
	if len(fail) > 0 {
		res.Error = fmt.Sprintf("%v", fail)
		return res, fmt.Errorf("chaos cell %s: %v", res.Label, fail)
	}
	return res, nil
}
