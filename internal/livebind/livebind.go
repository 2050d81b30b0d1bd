// Package livebind binds the protocol code of internal/core to a real
// in-process runtime: queues from internal/queue, atomic test-and-set on
// the awake flags, runtime.Gosched as yield, and cancellable counting
// semaphores with direct token hand-off (see Semaphore).
//
// This is the library surface a Go program uses directly. "Processes"
// are goroutines (optionally pinned to OS threads); the address-space
// boundary of the paper's deployment is elided, but every code path —
// the queues, the awake-flag races, the wake-up system calls — is the
// same one a shared-memory deployment exercises. See DESIGN.md for the
// substitution rationale.
package livebind

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/fault"
	"ulipc/internal/metrics"
	"ulipc/internal/obs"
	"ulipc/internal/queue"
)

// Channel is one unidirectional shared queue plus its consumer's wake
// state (awake flag and semaphore) — the live analogue of the paper's
// shared-memory queue segment.
//
// The wake-state words are padded onto separate 64-byte cache lines:
// the awake flag is test-and-set by every producer and stored by the
// consumer on every blocking cycle, the waiters count is CASed by pool
// clients and workers, and neither should invalidate the read-mostly
// header (queue interface, semaphore pointer, sem id) or each other.
type Channel struct {
	q    queue.Queue
	sem  *Semaphore
	id   core.SemID
	kind queue.Kind

	// Shutdown state (the ports' Refusing and Closed). refuse flips
	// first (producers stop, consumers drain), closed second (consumers
	// unblock). Both are written once, at shutdown, and only loaded on
	// blocking/empty cycles — they share the read-mostly header line by
	// design.
	refuse atomic.Bool
	closed atomic.Bool

	// dead marks a channel whose peer (its only consumer, or its every
	// producer) has been declared dead by the recovery sweeper. It
	// upgrades the closed state's ErrShutdown to core.ErrPeerDead on the
	// *Ctx paths (the ports' PeerDead); like refuse/closed it is
	// written once and loaded only on blocking cycles.
	dead atomic.Bool

	_       [64]byte
	awake   atomic.Bool
	_       [64]byte
	waiters atomic.Int64 // worker-pool registrations
	_       [64]byte
}

// NewChannel builds a channel over the given queue implementation.
// KindSPSC is rejected: a bare channel's topology is not provable (any
// number of ports may be attached to either side), so SPSC channels
// exist only inside System, which controls endpoint creation.
func NewChannel(kind queue.Kind, capacity int) (*Channel, error) {
	if kind == queue.KindSPSC {
		return nil, fmt.Errorf("livebind: KindSPSC needs a provably single-producer/single-consumer topology; System builds SPSC reply channels unless Options.MPMCReplies is set (and enforces their topology), or use queue.NewSPSC directly")
	}
	q, err := queue.New(kind, capacity)
	if err != nil {
		return nil, err
	}
	c := &Channel{q: q, kind: kind, sem: NewSemaphore(0)}
	c.awake.Store(true)
	return c, nil
}

// newSPSCChannel builds a channel over an SPSC ring. Callers (System)
// must guarantee a single producer endpoint and a single consumer
// endpoint; see the enforcement in System.Server/DuplexPair/WorkerPool.
func newSPSCChannel(capacity int) (*Channel, error) {
	q, err := queue.NewSPSC(capacity)
	if err != nil {
		return nil, err
	}
	c := &Channel{q: q, kind: queue.KindSPSC, sem: NewSemaphore(0)}
	c.awake.Store(true)
	return c, nil
}

// Kind returns the queue implementation the channel was built with.
func (c *Channel) Kind() queue.Kind { return c.kind }

// Queue exposes the underlying queue (diagnostics).
func (c *Channel) Queue() queue.Queue { return c.q }

// SemCount exposes the semaphore count (diagnostics and tests: the
// Figure 4 race analysis is about this value staying bounded).
func (c *Channel) SemCount() int64 { return c.sem.Count() }

// Sem exposes the channel's wake-up semaphore (diagnostics, tests).
func (c *Channel) Sem() *Semaphore { return c.sem }

// Refuse makes the channel reject new messages (producers observe
// Refusing and stop) while consumers keep draining — phase one of the
// graceful shutdown.
func (c *Channel) Refuse() { c.refuse.Store(true) }

// CloseDown fully shuts the channel: it refuses new messages, marks the
// channel closed (consumers return the shutdown marker once drained)
// and releases every waiter parked on the channel's semaphore.
func (c *Channel) CloseDown() {
	c.refuse.Store(true)
	c.closed.Store(true)
	c.sem.Close()
}

// MarkPeerDead is CloseDown for a partial failure: the sweeper calls it
// when one side of the channel is entirely dead. The closed state
// unblocks parked waiters exactly as in a shutdown, and the dead flag
// makes the *Ctx paths surface core.ErrPeerDead instead of ErrShutdown
// (legacy error-less paths still get the shutdown marker — they have no
// error surface).
func (c *Channel) MarkPeerDead() {
	c.dead.Store(true)
	c.CloseDown()
}

// PeerDead reports whether the sweeper declared the channel's peer dead.
func (c *Channel) PeerDead() bool { return c.dead.Load() }

// Port is a process's endpoint on a channel; it implements core.Port.
// It caches nothing: a two-lock producer allocates each node straight
// from the channel's shared free pool, so a retiring owner leaves
// nothing behind to spill.
type Port struct {
	c    *Channel
	ring *queue.SPSC    // non-nil iff the channel's queue is an SPSC ring
	tl   *queue.TwoLock // non-nil iff fh is enabled on a two-lock queue

	// Fault/recovery identity: owner tags the robust queue locks this
	// port takes (so the sweeper can reclaim them if the owner dies) and
	// fh carries the owner's injected-fault schedule. System-built ports
	// bind these when fault injection is on; otherwise the port operates
	// anonymously and the zero hook keeps the hot path to one nil check.
	owner int32
	fh    fault.Hook
}

// NewPort returns an endpoint view of the channel.
func NewPort(c *Channel) *Port {
	p := &Port{c: c, owner: queue.AnonOwner}
	p.ring, _ = c.q.(*queue.SPSC)
	return p
}

// bindActor attaches an actor's fault identity to the port: robust
// locks it takes are tagged with the actor id, and the actor's fault
// hook injects crashes inside the queue's critical sections. No-op
// binding when the actor carries no hook (fault injection off).
func (p *Port) bindActor(a *Actor) *Port {
	if !a.FH.Enabled() {
		return p
	}
	p.owner = a.ID
	p.fh = a.FH
	if tl, ok := p.c.q.(*queue.TwoLock); ok {
		p.tl = tl
	}
	return p
}

// TryEnqueue implements core.Port.
func (p *Port) TryEnqueue(m core.Msg) bool {
	if p.fh.Enabled() && p.tl != nil {
		return p.tl.EnqueueAs(p.owner, m, p.fh)
	}
	return p.c.q.Enqueue(m)
}

// TryEnqueueBatch implements core.Port: vectored over an SPSC ring
// (one index publish per burst), one TryEnqueue at a time otherwise.
func (p *Port) TryEnqueueBatch(ms []core.Msg) int {
	if p.ring != nil {
		return p.ring.EnqueueN(ms)
	}
	return core.EnqueueEach(p, ms)
}

// TryDequeue implements core.Port.
func (p *Port) TryDequeue() (core.Msg, bool) {
	if p.fh.Enabled() && p.tl != nil {
		return p.tl.DequeueAs(p.owner, p.fh)
	}
	return p.c.q.Dequeue()
}

// TryDequeueBatch implements core.Port: vectored over an SPSC ring, one
// TryDequeue at a time otherwise.
func (p *Port) TryDequeueBatch(dst []core.Msg) int {
	if p.ring != nil {
		return p.ring.DequeueN(dst)
	}
	return core.DequeueEach(p, dst)
}

// Empty implements core.Port.
func (p *Port) Empty() bool { return p.c.q.Empty() }

// Depth implements core.Port: the channel's queued-message count, the
// admission-control observable (racy snapshot, like queue Len).
func (p *Port) Depth() int { return p.c.q.Len() }

// SetAwake implements core.Port.
func (p *Port) SetAwake(v bool) { p.c.awake.Store(v) }

// TASAwake implements core.Port.
func (p *Port) TASAwake() bool { return p.c.awake.Swap(true) }

// ClaimWake implements core.Port: the producer's test-and-set.
func (p *Port) ClaimWake() bool { return !p.TASAwake() }

// Sem implements core.Port.
func (p *Port) Sem() core.SemID { return p.c.id }

// Refusing implements core.Port.
func (p *Port) Refusing() bool { return p.c.refuse.Load() }

// Closed implements core.Port.
func (p *Port) Closed() bool { return p.c.closed.Load() }

// PeerDead implements core.Port.
func (p *Port) PeerDead() bool { return p.c.dead.Load() }

// Actor implements core.Actor over the Go runtime. Each participant
// (client or server goroutine) owns one Actor; the sems table maps
// core.SemID to the process-wide semaphores.
type Actor struct {
	sems []*Semaphore

	// SpinIters, when positive, makes BusyWait/PollDelay a bounded spin
	// (multiprocessor flavour); otherwise they are runtime.Gosched
	// (uniprocessor flavour).
	SpinIters int

	// SleepScale compresses the protocols' queue-full sleep(1) for
	// testing; 0 means full UNIX semantics (1 second).
	SleepScale time.Duration

	// Tun, when non-nil, is the handle's BSA controller: queue-full
	// naps stretch with its oversubscription backoff (Tuner.NapScale),
	// the producer-side half of the adaptive protocol.
	Tun *core.Tuner

	M *metrics.Proc // optional

	// Obs, when enabled, receives the sleep-phase durations (time spent
	// actually parked on a semaphore) and the block/wake flight-recorder
	// events. The zero Hook keeps P/V clock-free.
	Obs obs.Hook

	// ID is the actor's recovery identity: robust queue locks taken
	// through this actor's ports are tagged with it, and crash reports
	// name it. Assigned by System.newActor; queue.AnonOwner otherwise.
	ID int32

	// FH is the actor's fault-injection hook (zero when injection is
	// off). The chaos harness also calls FH.Crashpoint(fault.PtBody)
	// between protocol operations to kill actors outside the runtime's
	// own injection points.
	FH fault.Hook

	// life is the actor's slot in the recovery lifetable (nil when
	// recovery is off); hot operations beat it so lease-based detection
	// can tell a live-but-parked actor from a vanished one.
	life *lifeSlot

	spinSink int64
}

// beat records liveness progress for lease-based peer-death detection.
func (a *Actor) beat() {
	if a.life != nil {
		a.life.beat.Add(1)
	}
}

// Yield implements core.Actor.
func (a *Actor) Yield() {
	if a.M != nil {
		a.M.Yields.Add(1)
	}
	runtime.Gosched()
}

// BusyWait implements core.Actor.
func (a *Actor) BusyWait() {
	if a.SpinIters > 0 {
		a.spin(a.SpinIters)
		return
	}
	runtime.Gosched()
}

// PollDelay implements core.Actor.
func (a *Actor) PollDelay() { a.BusyWait() }

// P implements core.Actor. When the call actually sleeps it is counted
// as a block; with observability attached the parked duration lands in
// the sleep-phase histogram and an EvBlock event (arg: blocked ns) on
// the flight recorder (Hook.Slept). An enabled hook stamps the clock
// before every P, since only the semaphore knows whether it will park;
// a disabled hook takes no clock read.
func (a *Actor) P(id core.SemID) {
	if a.M != nil {
		a.M.SemP.Add(1)
	}
	a.beat()
	a.FH.Crashpoint(fault.PtBlock)
	t0 := a.Obs.Stamp()
	if a.sems[id].P() {
		if a.M != nil {
			a.M.Blocks.Add(1)
		}
		a.Obs.Slept(t0)
	}
}

// V implements core.Actor. A V that (plausibly) woke a sleeper counts
// as a wake-up and is noted on the flight recorder (arg: semaphore id).
//
// With fault injection enabled, the V may be mutated: dropped (the lost
// wake-up the sweeper's rescue heuristic must repair), duplicated (the
// spurious wake-up the protocols' token accounting must absorb), or
// delayed. A crashpoint right before the mutation models a producer
// dying owing its wake-up — Figure 4's race window, made permanent.
func (a *Actor) V(id core.SemID) { a.v(id) }

// Grant implements core.Actor: V, then, if it woke a waiter, yield the
// processor to it. The semaphore grants by a send on the waiter's
// channel, which puts the woken goroutine in this P's runnext slot, so
// the yield runs it at once — the directed hand-off of the paper's
// Section 6. On the synchronous send's request wake the server then
// finds the client's awake flag still set, replies without a V and
// parks, and the client's first dequeue finds the reply: one park and
// one wake per round trip instead of two.
func (a *Actor) Grant(id core.SemID) {
	if a.v(id) {
		runtime.Gosched()
	}
}

// v is V's body; it reports whether the V woke a sleeper.
func (a *Actor) v(id core.SemID) bool {
	if a.M != nil {
		a.M.SemV.Add(1)
	}
	a.beat()
	if a.FH.Enabled() {
		a.FH.Crashpoint(fault.PtWake)
		switch a.FH.WakeOp() {
		case fault.WakeDrop:
			return false // the V never happens
		case fault.WakeDup:
			a.sems[id].V()
		case fault.WakeDelay:
			time.Sleep(a.FH.WakeDelayDur())
		}
	}
	if a.sems[id].V() {
		if a.M != nil {
			a.M.Wakeups.Add(1)
		}
		a.Obs.Note(obs.EvWake, int64(id))
		return true
	}
	return false
}

// Handoff implements core.Actor. The hint names no semaphore to grant
// on, so it degrades to a yield — exactly the fallback the paper's
// portable implementation uses. The directed hand-off the Go runtime
// does offer, a channel grant's runnext slot, is Grant's.
func (a *Actor) Handoff(target int) { a.Yield() }

// countCtxErr attributes a cancellation outcome to the robustness
// counters and the flight recorder.
func (a *Actor) countCtxErr(err error) {
	if err == nil {
		return
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		if a.M != nil {
			a.M.Timeouts.Add(1)
		}
		a.Obs.Note(obs.EvTimeout, 0)
	case errors.Is(err, context.Canceled):
		if a.M != nil {
			a.M.Cancels.Add(1)
		}
		a.Obs.Note(obs.EvCancel, 0)
	}
}

// PCtx implements core.Actor: P with cancellation and exact token
// accounting (see Semaphore.PCtx). Sleep attribution mirrors P.
func (a *Actor) PCtx(ctx context.Context, id core.SemID) error {
	if a.M != nil {
		a.M.SemP.Add(1)
	}
	a.beat()
	a.FH.Crashpoint(fault.PtBlock)
	t0 := a.Obs.Stamp()
	slept, err := a.sems[id].PCtx(ctx)
	if slept {
		if a.M != nil {
			a.M.Blocks.Add(1)
		}
		a.Obs.Slept(t0)
	}
	a.countCtxErr(err)
	return err
}

// SleepCtx implements core.Actor: the queue-full nap, cancellable.
func (a *Actor) SleepCtx(ctx context.Context, s int) error {
	if a.M != nil {
		a.M.Sleeps.Add(1)
	}
	d := time.Duration(s) * time.Second
	if a.SleepScale > 0 {
		d = time.Duration(s) * a.SleepScale
	}
	if a.Tun != nil {
		d = a.Tun.NapScale(d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		a.countCtxErr(ctx.Err())
		return ctx.Err()
	}
}

// spin burns CPU without synchronisation. The accumulator is per-Actor
// (one Actor per goroutine), so there is no shared mutable state.
//
//go:noinline
func (a *Actor) spin(n int) {
	acc := a.spinSink
	for i := 0; i < n; i++ {
		acc += int64(i)
	}
	a.spinSink = acc
}

var (
	_ core.Port  = (*Port)(nil)
	_ core.Actor = (*Actor)(nil)
)

// PoolPort is a channel endpoint whose consumer side is a worker pool
// (counted waiters); it implements core.PoolPort.
type PoolPort struct {
	c *Channel
}

// NewPoolPort returns a pool-endpoint view of the channel.
func NewPoolPort(c *Channel) *PoolPort { return &PoolPort{c: c} }

// TryEnqueue implements core.PoolPort.
func (p *PoolPort) TryEnqueue(m core.Msg) bool { return p.c.q.Enqueue(m) }

// TryEnqueueBatch implements core.PoolPort.
func (p *PoolPort) TryEnqueueBatch(ms []core.Msg) int { return core.EnqueueEach(p, ms) }

// TryDequeue implements core.PoolPort.
func (p *PoolPort) TryDequeue() (core.Msg, bool) { return p.c.q.Dequeue() }

// Empty implements core.PoolPort.
func (p *PoolPort) Empty() bool { return p.c.q.Empty() }

// Depth implements core.PoolPort.
func (p *PoolPort) Depth() int { return p.c.q.Len() }

// RegisterWaiter implements core.PoolPort.
func (p *PoolPort) RegisterWaiter() { p.c.waiters.Add(1) }

// TryUnregisterWaiter implements core.PoolPort.
func (p *PoolPort) TryUnregisterWaiter() bool { return decIfPositive(&p.c.waiters) }

// ClaimWake implements core.PoolPort: claim a registered waiter.
func (p *PoolPort) ClaimWake() bool { return decIfPositive(&p.c.waiters) }

// Sem implements core.PoolPort.
func (p *PoolPort) Sem() core.SemID { return p.c.id }

// Refusing implements core.PoolPort.
func (p *PoolPort) Refusing() bool { return p.c.refuse.Load() }

// Closed implements core.PoolPort.
func (p *PoolPort) Closed() bool { return p.c.closed.Load() }

// PeerDead implements core.PoolPort.
func (p *PoolPort) PeerDead() bool { return p.c.dead.Load() }

// decIfPositive atomically decrements v if it is positive.
func decIfPositive(v *atomic.Int64) bool {
	for {
		cur := v.Load()
		if cur <= 0 {
			return false
		}
		if v.CompareAndSwap(cur, cur-1) {
			return true
		}
	}
}

var _ core.PoolPort = (*PoolPort)(nil)
