package workload

import (
	"errors"
	"fmt"
	"math"
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
	// Two-lock queues on both legs (as in RunChaosCell) so every pool is
	// auditable after teardown.
	opts := cfg.options(ms)
	opts.QueueKind, opts.MPMCReplies = queue.KindTwoLock, true
	opts.Admission = livebind.Admission{HighWater: okHighWater, RetryCap: okRetryCap}
	opts.Recovery = &livebind.RecoveryOptions{SweepInterval: chaosSweep}
	sys, err := livebind.NewSystem(opts)
	if err != nil {
		return ChaosResult{}, err
	}
	cls := make([]*core.Client, cfg.Clients)
	for i := range cls {
		if cls[i], err = sys.Client(i); err != nil {
			return ChaosResult{}, err
		}
	}

	res := newChaosResult(cfg, fmt.Sprintf("chaos/overloadkill/%s/%dc/seed%d", cfg.Alg, cfg.Clients, cfg.Seed))
	c := newCell(cfg.Watchdog)
	defer c.cancel()
	var completed atomic.Int64

	srv := sys.Server()
	srv.Shed = c.shedPolicy()
	pay := echoPayload(srv)
	work := func(m *core.Msg) {
		time.Sleep(okService)
		if cfg.PaySize > 0 {
			pay(m)
		}
	}
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		_, err := srv.ServeCtx(c.ctx, work)
		c.noteExit("server", err)
	}()

	// blast is the shared client body: full-tilt deadline-stamped sends
	// with opportunistic reply draining by the open-loop collector. It
	// returns early — abandoning everything in flight — when stopAt
	// sends have gone out (the victim's death).
	dlNs := okDeadline.Nanoseconds()
	blast := func(id int, cl *core.Client, stopAt int) {
		k := newCollector(cl, func(core.Msg) { completed.Add(1) })
		send := func(m core.Msg) error { return cl.SendAsyncCtx(c.ctx, m) }
		for j := 0; j < cfg.Msgs && c.ctx.Err() == nil; j++ {
			if j == stopAt {
				return // killed mid-overload: no drain, no frees, no goodbye
			}
			k.drain()
			m := core.Msg{Op: core.OpEcho, Seq: int32(j), Val: float64(c.nowNs() + dlNs)}
			// An exhausted arena loses the arrival at the allocator; an
			// admission reject is the overload the cell wants.
			if err := k.offer(m, cfg.PaySize, send); err != nil && err != errNoBlock && !errors.Is(err, core.ErrOverload) {
				if c.ctx.Err() == nil {
					c.noteErr("client%d: send: %v", id, err)
				}
				return
			}
		}
		// Survivors collect their backlog until the request queue drains
		// and the reply side stays quiet.
		k.settle(c.ctx, c, math.MaxInt64)
	}

	const victim = 0
	victimGone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(victimGone)
		// The stranded lease: allocated, never sent, never freed — only
		// the sweeper's owner walk can return it.
		if cfg.PaySize > 0 {
			if _, err := cls[victim].AllocPayload(cfg.PaySize); err != nil {
				c.noteErr("victim: stranded-lease alloc: %v", err)
			}
		}
		blast(victim, cls[victim], cfg.Msgs/2)
		// Hold the corpse until the storm is real: the kill must land
		// with sheds in flight, so wait (bounded — the final Sheds==0
		// check reports a cell that never overloaded) for the server to
		// have shed at least once while the survivors keep blasting.
		until := time.Now().Add(2 * time.Second)
		for c.ctx.Err() == nil && ms.Total().Sheds == 0 && time.Now().Before(until) {
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for i := 1; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			blast(i, cls[i], -1)
		}(i)
	}

	// The kill lands while the survivors are still blasting: mark the
	// victim dead and force a synchronous sweep, so recovery (owner
	// walk, orphan drains, peer-death marking) runs with the overload
	// machinery live around it.
	<-victimGone
	sys.KillActor(cls[victim].A.(*livebind.Actor).ID)
	sys.SweepNow()
	c.join(&wg)

	// A final sweep with everything quiesced: whatever the server sent
	// the dead victim after the kill is orphaned in its reply queue now.
	var fail []string
	sys.SweepNow()
	if !sys.ReplyChannel(victim).Queue().Empty() {
		fail = append(fail, "victim's reply queue not orphan-drained by the sweeper")
	}
	c.teardown(sys, &swg)

	// Pool and lease audits, as in RunChaosCell: every two-lock node
	// pool and the whole slab arena must be whole.
	res.PoolLeaked, res.BlockLeaked = c.auditPools(sys, cfg.Clients)
	res.Completed = completed.Load()
	total := ms.Total()
	if total.Sheds == 0 {
		fail = append(fail, "no sheds: the cell never reached overload, so it proves nothing")
	}
	if total.Overloads == 0 {
		fail = append(fail, "no admission rejects: the cell never reached overload")
	}
	if total.PeerDeaths == 0 {
		fail = append(fail, "victim's death never recovered")
	}
	if cfg.PaySize > 0 && total.OrphanBlocks == 0 {
		fail = append(fail, "stranded lease not reclaimed by the owner walk")
	}
	return res, c.finish(&res, ms, fail...)
}
