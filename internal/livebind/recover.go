package livebind

import (
	"sync"
	"sync/atomic"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/fault"
	"ulipc/internal/metrics"
	"ulipc/internal/obs"
	"ulipc/internal/queue"
)

// This file is the peer-death detection and self-healing layer: a
// lifetable of per-actor records plus a sweeper goroutine that, when an
// actor dies, reclaims whatever it left behind — robust queue locks,
// orphaned in-flight nodes, and peers blocked forever on a participant
// that will never answer. It is the in-process analogue of the robust-
// futex protocol: crash *notification* normally arrives from the
// goroutine wrapper that recovers an injected fault.Crash panic (the
// FUTEX_OWNER_DIED analogue), with lease expiry as an opt-in secondary
// detector for actors that vanish without a report.

// RecoveryOptions configures the sweeper (see Options.Recovery).
type RecoveryOptions struct {
	// SweepInterval is the sweeper's polling period (default 200µs).
	SweepInterval time.Duration

	// Lease, when positive, enables lease-based death detection: a live
	// actor whose beat counter has not moved for longer than the lease
	// is declared dead. Beats are recorded on semaphore operations and
	// sleeps, so an actor parked in a long P with no traffic can trip a
	// short lease — use leases only where actors guarantee periodic
	// activity, or as a last-resort hung-actor detector. 0 disables
	// (deaths are then detected only via ReportCrash/KillActor).
	Lease time.Duration
}

// lifeSlot is one actor's record in the recovery lifetable.
type lifeSlot struct {
	id   int32
	name string

	// state: 0 live, 1 dead (reported, not yet swept), 2 recovered.
	// Written under recovery.mu.
	state int

	// beat counts liveness progress; bumped lock-free by the actor's hot
	// operations, sampled by the sweeper for lease expiry.
	beat atomic.Int64

	// What the actor touches, for targeted recovery. Registered at
	// handle-construction time under recovery.mu.
	produces []*Channel
	consumes []*Channel

	// Sweeper-local lease bookkeeping.
	lastBeat int64
	lastMove time.Time
}

// chanMeta tracks which actors sit on each side of a channel so the
// sweeper knows when a whole side is gone.
type chanMeta struct {
	ch        *Channel
	producers int // registered producer actors
	consumers int // registered consumer actors
	deadProd  int
	deadCons  int
	stuck     int // consecutive sweeps non-empty with a parked consumer
}

// recovery is the sweeper state hung off a System built with Options.Recovery.
type recovery struct {
	s    *System
	opts RecoveryOptions
	m    *metrics.Proc // the sweeper's own counters ("sweeper" proc)

	mu    sync.Mutex
	slots map[int32]*lifeSlot
	chans map[*Channel]*chanMeta

	stop chan struct{}
	done chan struct{}
}

// ReportCrash inspects a recovered panic value; if it is an injected
// fault.Crash it marks the actor dead in the lifetable — the crash
// notification the harness wrappers deliver — and reports true. Any
// other value (or a system without recovery) reports false, and the
// caller should re-panic: a non-injected panic is a real bug.
func (s *System) ReportCrash(v any) bool {
	c, ok := fault.AsCrash(v)
	if !ok || s.rec == nil {
		return false
	}
	s.rec.m.Crashes.Add(1)
	s.obs.Recorder().Note(obs.EvCrash, c.Actor, int64(c.Point))
	s.rec.kill(c.Actor)
	return true
}

// KillActor marks an actor dead by id (tests, or external supervisors
// that learn of a death out of band). Unknown ids are ignored.
func (s *System) KillActor(id int32) {
	if s.rec != nil {
		s.rec.kill(id)
	}
}

// SweepNow runs one synchronous sweep (recover newly dead actors, drain
// dead channels, rescue lost wakes). The background sweeper does this
// on every tick; tests and teardown call it directly for determinism.
func (s *System) SweepNow() {
	if s.rec != nil {
		s.rec.sweep()
	}
}

func newRecovery(s *System, opts RecoveryOptions) *recovery {
	if opts.SweepInterval <= 0 {
		opts.SweepInterval = 200 * time.Microsecond
	}
	return &recovery{
		s:     s,
		opts:  opts,
		m:     s.ms.NewProc("sweeper"),
		slots: make(map[int32]*lifeSlot),
		chans: make(map[*Channel]*chanMeta),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// register adds an actor and its channel topology to the lifetable.
// Called from the handle constructors.
func (r *recovery) register(a *Actor, consumes, produces []*Channel) {
	slot := &lifeSlot{
		id:       a.ID,
		name:     nameOf(a),
		consumes: consumes,
		produces: produces,
		lastMove: time.Now(),
	}
	a.life = slot
	r.mu.Lock()
	r.slots[a.ID] = slot
	for _, ch := range produces {
		r.meta(ch).producers++
	}
	for _, ch := range consumes {
		r.meta(ch).consumers++
	}
	r.mu.Unlock()
}

// meta returns (creating if needed) the channel record; r.mu held.
func (r *recovery) meta(ch *Channel) *chanMeta {
	m := r.chans[ch]
	if m == nil {
		m = &chanMeta{ch: ch}
		r.chans[ch] = m
	}
	return m
}

func nameOf(a *Actor) string {
	if a.M != nil {
		return a.M.Name
	}
	return ""
}

// kill marks an actor dead; the next sweep recovers what it held.
func (r *recovery) kill(id int32) {
	r.mu.Lock()
	slot := r.slots[id]
	if slot != nil && slot.state == 0 {
		slot.state = 1
	}
	r.mu.Unlock()
}

// run is the sweeper goroutine body.
func (r *recovery) run() {
	defer close(r.done)
	t := time.NewTicker(r.opts.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.sweep()
		}
	}
}

// halt stops the background sweeper and waits for it to exit; the final
// teardown sweep is the caller's (Shutdown's) job.
func (r *recovery) halt() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
}

// sweep is one pass of the recovery loop. Serialised by r.mu, so the
// background ticker and SweepNow callers never interleave a recovery.
func (r *recovery) sweep() {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()

	// Lease expiry: a live actor whose beat counter stalled too long is
	// declared dead (opt-in; see RecoveryOptions.Lease).
	if lease := r.opts.Lease; lease > 0 {
		for _, slot := range r.slots {
			if slot.state != 0 {
				continue
			}
			if b := slot.beat.Load(); b != slot.lastBeat {
				slot.lastBeat, slot.lastMove = b, now
			} else if now.Sub(slot.lastMove) > lease {
				slot.state = 1
			}
		}
	}

	// Recover newly dead actors. Head locks first, across ALL dead
	// actors: the tail repair in recoverLocked acquires the head lock,
	// which would spin forever on a head lock still held by another
	// actor that died in the same window (see queue.RecoverDeadTail).
	for _, slot := range r.slots {
		if slot.state == 1 {
			for _, ch := range r.touched(slot) {
				if tl, ok := ch.q.(*queue.TwoLock); ok {
					if n := tl.RecoverDeadHead(slot.id); n > 0 {
						r.m.LockReclaims.Add(int64(n))
						r.s.obs.Recorder().Note(obs.EvReclaim, slot.id, int64(n))
					}
				}
			}
		}
	}
	for _, slot := range r.slots {
		if slot.state == 1 {
			r.recoverLocked(slot)
			slot.state = 2
		}
	}

	// Channels whose every consumer is dead accumulate orphaned
	// messages (producers racing the dead flag can still slip one in);
	// drain them back to the pool on every pass.
	for _, cm := range r.chans {
		if cm.consumers > 0 && cm.deadCons == cm.consumers {
			var n int
			if r.s.blocks != nil {
				// Drained messages may carry payload leases nobody will
				// resolve: claim-free each one alongside its node.
				n = queue.DrainFunc(cm.ch.q, r.reclaimMsgBlock)
			} else {
				n = queue.Drain(cm.ch.q)
			}
			if n > 0 {
				r.m.OrphanMsgs.Add(int64(n))
				r.s.obs.Recorder().Note(obs.EvReclaim, -1, int64(n))
			}
		}
	}

	// Lost-wake rescue: a channel whose consumer stays parked across two
	// consecutive sweeps while a wake-up is owed has plausibly lost it
	// (dropped V, or a producer that died owing one); issue a
	// compensating V. A wake-up is owed while the queue is non-empty, or
	// while the awake flag is set: a consumer clears the flag before it
	// parks, so a set flag over a parked consumer means a producer won
	// the test-and-set and took the duty to V — the case of a consumer
	// that dequeued the message and parks only to take that V, with its
	// queue empty. (Worker pools park on registered waiters instead and
	// leave the flag alone.) A spurious rescue is harmless — the
	// protocols' token accounting absorbs redundant wake-ups — so the
	// heuristic errs toward liveness.
	for _, cm := range r.chans {
		ch := cm.ch
		owed := !ch.q.Empty() || ch.awake.Load() && ch.waiters.Load() == 0
		if ch.closed.Load() || !owed {
			cm.stuck = 0
			continue
		}
		if ch.sem.Sleeping() == 0 && ch.sem.Waiters() == 0 {
			cm.stuck = 0
			continue
		}
		cm.stuck++
		if cm.stuck >= 2 {
			cm.stuck = 0
			// Recorded before the V, so a consumer the rescue wakes
			// already finds it counted.
			r.m.WakeRescues.Add(1)
			r.s.obs.Recorder().Note(obs.EvRescue, -1, int64(ch.id))
			ch.sem.V()
		}
	}
}

// sweepOwner is the lease tag the sweeper claims under while freeing a
// drained message's payload — far above the actor-id owner domain.
const sweepOwner = ^uint32(0) - 1

// reclaimMsgBlock claim-frees one drained message's payload lease (its
// receiver is dead, so nobody else will resolve it). A failed claim
// means another reclaimer got there first — not an error.
func (r *recovery) reclaimMsgBlock(m core.Msg) {
	if core.DropPayload(r.s.blocks, sweepOwner, m) {
		r.m.OrphanBlocks.Add(1)
	}
}

// touched returns the deduplicated set of channels a dead actor sat on
// either side of; r.mu held.
func (r *recovery) touched(slot *lifeSlot) []*Channel {
	seen := map[*Channel]bool{}
	var out []*Channel
	for _, ch := range append(append([]*Channel{}, slot.produces...), slot.consumes...) {
		if !seen[ch] {
			seen[ch] = true
			out = append(out, ch)
		}
	}
	return out
}

// recoverLocked reclaims everything one dead actor held; r.mu held.
func (r *recovery) recoverLocked(slot *lifeSlot) {
	r.m.PeerDeaths.Add(1)
	r.s.obs.Recorder().Note(obs.EvPeerDead, slot.id, int64(slot.id))

	// Robust queue locks: revoke the tail lock (with node-list repair) on
	// any channel the dead actor touched. Head locks were already revoked
	// in the sweep's first pass (see queue.TwoLock.RecoverDead for the
	// ordering requirement).
	for _, ch := range r.touched(slot) {
		if tl, ok := ch.q.(*queue.TwoLock); ok {
			if n := tl.RecoverDeadTail(slot.id); n > 0 {
				r.m.LockReclaims.Add(int64(n))
				r.s.obs.Recorder().Note(obs.EvReclaim, slot.id, int64(n))
			}
		}
	}

	// Orphaned in-flight ref: a node the actor allocated but never
	// linked (or unlinked but never freed) goes back to the pool.
	if r.s.inj != nil && r.s.inj.ReclaimPending(slot.id) {
		r.m.OrphanRefs.Add(1)
		r.s.obs.Recorder().Note(obs.EvReclaim, slot.id, 1)
	}
	// A message the actor had unlinked but not yet handled died with it.
	// Its payload lease is still tagged with the live sender, so neither
	// the owner walk below nor the orphan drain would ever find it.
	if r.s.inj != nil && r.s.blocks != nil {
		if m, ok := r.s.inj.ReclaimHeld(slot.id); ok {
			r.reclaimMsgBlock(m)
		}
	}

	// Payload leases: return every block still leased under the dead
	// actor's tag. Claim races with a live receiver adopting an
	// in-flight payload resolve to one winner, so nothing double-frees.
	if r.s.blocks != nil {
		if n := r.s.blocks.ReclaimOwner(uint32(slot.id)); n > 0 {
			r.m.OrphanBlocks.Add(int64(n))
			r.s.obs.Recorder().Note(obs.EvReclaim, slot.id, int64(n))
		}
	}

	// Server groups: if the dead actor was serving a shard, mark the
	// shard dead (see System.noteActorDead). This must precede closing
	// the shard's channel below: a group reads a refusing channel of a
	// shard not yet marked dead as a system shutdown, and would fail
	// survivors' sends with ErrShutdown in between.
	r.s.noteActorDead(slot.id)

	// Side accounting: when a whole side of a channel is gone, the
	// survivors must stop waiting on it.
	for _, ch := range slot.produces {
		cm := r.meta(ch)
		cm.deadProd++
		if cm.deadProd == cm.producers {
			// Every producer is dead: the consumer would park forever
			// waiting for traffic that cannot come.
			ch.MarkPeerDead()
		}
	}
	for _, ch := range slot.consumes {
		cm := r.meta(ch)
		cm.deadCons++
		if cm.deadCons == cm.consumers {
			// Every consumer is dead: producers would block on a full
			// queue forever, and queued messages are orphans (drained by
			// the per-sweep pass).
			ch.MarkPeerDead()
		}
	}
}
