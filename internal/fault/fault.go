// Package fault is the seeded, deterministic fault-injection layer the
// chaos harness drives the live runtime with. It follows the same
// zero-cost-when-disabled pattern as internal/obs: every instrumented
// call site holds a Hook by value, and the zero Hook reduces every
// operation to a single nil check, so production paths pay nothing.
//
// Faults come in two families:
//
//   - Crash-at-point: a Crashpoint call panics with a Crash value,
//     killing the calling goroutine mid-critical-section (the in-process
//     analogue of a peer process dying while holding a queue lock or
//     owing a semaphore V). Instrumented critical sections deliberately
//     do NOT defer their unlocks, so the panic leaves the lock held and
//     the structure half-mutated — exactly the state the recovery
//     machinery (generation-stamped lock reclaim, orphan drain) must
//     survive.
//   - Wake-up mutation: a V may be dropped, duplicated, or delayed,
//     modelling the lost/spurious/late wake-up hazards of Section 3 of
//     the paper under a faulty peer.
//
// Determinism: each actor draws its fault decisions from a private
// rand stream seeded from the plan seed and the actor id, so a given
// (seed, actor) pair produces the same decision sequence on every run
// regardless of scheduling. Cross-actor interleaving still varies — the
// recovery guarantees under test must hold for all interleavings.
package fault

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ulipc/internal/core"
)

// Point identifies an injection site. Crash probabilities are
// configured per point so a schedule can target, say, only the
// tail-lock critical section.
type Point uint8

// The instrumented injection points.
const (
	PtAfterAlloc    Point = iota // node allocated from the pool, not yet linked
	PtEnqueueLocked              // holding the tail lock, node linked, tail not yet advanced
	PtDequeueLocked              // holding the head lock, head not yet advanced
	PtBeforeFree                 // node unlinked from the queue, not yet freed
	PtWake                       // about to V a semaphore
	PtBlock                      // about to P a semaphore
	PtBody                       // actor body, between protocol operations
	NumPoints                    // number of points (array bound)
)

// String returns the point name.
func (p Point) String() string {
	switch p {
	case PtAfterAlloc:
		return "after-alloc"
	case PtEnqueueLocked:
		return "enqueue-locked"
	case PtDequeueLocked:
		return "dequeue-locked"
	case PtBeforeFree:
		return "before-free"
	case PtWake:
		return "wake"
	case PtBlock:
		return "block"
	case PtBody:
		return "body"
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// WakeOp is the mutation applied to one semaphore V.
type WakeOp uint8

// The wake-up mutations.
const (
	WakeNone  WakeOp = iota // deliver normally
	WakeDrop                // swallow the V (lost wake-up)
	WakeDup                 // deliver the V twice (spurious wake-up)
	WakeDelay               // deliver after a pause (late wake-up)
)

// Crash is the panic value a Crashpoint throws. Harness goroutine
// wrappers recover it and report the death to the recovery layer —
// the in-process analogue of the kernel's FUTEX_OWNER_DIED
// notification; any other panic value is a real bug and re-panics.
type Crash struct {
	Actor int32
	Point Point
}

// Error makes Crash usable as an error in reports.
func (c Crash) Error() string {
	return fmt.Sprintf("fault: actor %d crashed at %s", c.Actor, c.Point)
}

// AsCrash reports whether a recovered panic value is an injected crash.
func AsCrash(v any) (Crash, bool) {
	c, ok := v.(Crash)
	return c, ok
}

// Plan is one seeded fault schedule. Probabilities are per call to the
// corresponding hook; zero disables that fault class.
type Plan struct {
	Seed int64

	// Crash[p] is the probability that a Crashpoint(p) call panics.
	Crash [NumPoints]float64

	// Wake-mutation rates, evaluated per V in drop, dup, delay order.
	DropWake  float64
	DupWake   float64
	DelayWake float64

	// WakeDelayDur is how long a WakeDelay stalls the V (default 200µs).
	WakeDelayDur time.Duration

	// MaxCrashes caps the total injected crashes (0 = unlimited). A cap
	// keeps at least one side of every pairing alive long enough for the
	// run to make progress between deaths.
	MaxCrashes int
}

// UniformPlan builds a plan with the same crash probability at every
// point plus the given wake-mutation rates.
func UniformPlan(seed int64, crash, drop, dup, delay float64) Plan {
	p := Plan{Seed: seed, DropWake: drop, DupWake: dup, DelayWake: delay}
	for i := range p.Crash {
		p.Crash[i] = crash
	}
	return p
}

// Counts is a snapshot of the faults an injector has actually injected.
type Counts struct {
	Crashes    int64            // total crash panics thrown
	ByPoint    [NumPoints]int64 // crashes per injection point
	WakeDrops  int64
	WakeDups   int64
	WakeDelays int64
}

// PoolFreer is the slice of shm.Pool the pending-ref mechanism needs
// (shm.Ref is an alias of uint32, so *shm.Pool satisfies it without
// fault importing shm).
type PoolFreer interface {
	Free(uint32)
}

// actorState is the per-actor slice of an injector: a private rand
// stream plus the pending-ref cell. The rand stream is only touched by
// the owning goroutine; the pending cell is shared with the sweeper, so
// it sits behind its own mutex.
type actorState struct {
	rng     *rand.Rand
	crashed bool

	mu          sync.Mutex
	pendingPool PoolFreer
	pendingRef  uint32
	pendingSet  bool
	held        core.Msg // the message a pending dequeue unlinked
	holding     bool
}

// Injector owns one fault plan and hands out per-actor Hooks. Safe for
// concurrent use: per-actor state is created under a mutex, and the
// fault counters are atomics.
type Injector struct {
	plan    Plan
	crashes atomic.Int64
	byPoint [NumPoints]atomic.Int64
	drops   atomic.Int64
	dups    atomic.Int64
	delays  atomic.Int64

	mu     sync.Mutex
	actors map[int32]*actorState
}

// NewInjector builds an injector for the given plan.
func NewInjector(plan Plan) *Injector {
	if plan.WakeDelayDur <= 0 {
		plan.WakeDelayDur = 200 * time.Microsecond
	}
	return &Injector{plan: plan, actors: make(map[int32]*actorState)}
}

// Plan returns the injector's schedule.
func (inj *Injector) Plan() Plan { return inj.plan }

// Counts snapshots the injected-fault counters.
func (inj *Injector) Counts() Counts {
	var c Counts
	c.Crashes = inj.crashes.Load()
	for i := range c.ByPoint {
		c.ByPoint[i] = inj.byPoint[i].Load()
	}
	c.WakeDrops = inj.drops.Load()
	c.WakeDups = inj.dups.Load()
	c.WakeDelays = inj.delays.Load()
	return c
}

// state returns (creating if needed) the per-actor state for id.
func (inj *Injector) state(id int32) *actorState {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	st := inj.actors[id]
	if st == nil {
		// Mix the actor id into the seed with splitmix-style constants
		// so adjacent ids don't produce correlated streams.
		seed := inj.plan.Seed ^ int64(uint64(id+1)*0x9E3779B97F4A7C15)
		st = &actorState{rng: rand.New(rand.NewSource(seed))}
		inj.actors[id] = st
	}
	return st
}

// Hook returns the fault hook for one actor. Hooks are cheap values;
// the same actor id always maps to the same underlying state.
func (inj *Injector) Hook(actor int32) Hook {
	return Hook{inj: inj, st: inj.state(actor), actor: actor}
}

// ReclaimPending frees the actor's pending in-flight ref, if any, back
// to its pool. The sweeper calls this after the actor is declared dead;
// it reports whether a ref was reclaimed.
func (inj *Injector) ReclaimPending(actor int32) bool {
	inj.mu.Lock()
	st := inj.actors[actor]
	inj.mu.Unlock()
	if st == nil {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.pendingSet {
		return false
	}
	st.pendingPool.Free(st.pendingRef)
	st.pendingSet = false
	st.pendingPool = nil
	return true
}

// ReclaimHeld returns the message the actor had unlinked from a queue
// but not yet handed back when it died (see SetPendingMsg), and forgets
// it. The sweeper calls this after the actor is declared dead, to
// return whatever the message still carries.
func (inj *Injector) ReclaimHeld(actor int32) (core.Msg, bool) {
	inj.mu.Lock()
	st := inj.actors[actor]
	inj.mu.Unlock()
	if st == nil {
		return core.Msg{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	m, ok := st.held, st.holding
	st.held, st.holding = core.Msg{}, false
	return m, ok
}

// Hook is one actor's handle on the injector. The zero Hook is valid
// and disabled: every method reduces to one nil check, which is the
// whole cost of the layer when fault injection is off.
type Hook struct {
	inj   *Injector
	st    *actorState
	actor int32
}

// Enabled reports whether the hook injects anything.
func (h Hook) Enabled() bool { return h.inj != nil }

// Actor returns the hook's actor id (-1 when disabled).
func (h Hook) Actor() int32 {
	if h.inj == nil {
		return -1
	}
	return h.actor
}

// Crashpoint possibly panics with a Crash value, per the plan's
// probability for the point. A crashed actor never crashes twice, and
// the plan's MaxCrashes budget is respected.
func (h Hook) Crashpoint(p Point) {
	if h.inj == nil {
		return
	}
	pr := h.inj.plan.Crash[p]
	if pr <= 0 || h.st.crashed {
		return
	}
	if h.st.rng.Float64() >= pr {
		return
	}
	if max := h.inj.plan.MaxCrashes; max > 0 {
		if h.inj.crashes.Add(1) > int64(max) {
			h.inj.crashes.Add(-1)
			return
		}
	} else {
		h.inj.crashes.Add(1)
	}
	h.st.crashed = true
	h.inj.byPoint[p].Add(1)
	panic(Crash{Actor: h.actor, Point: p})
}

// WakeOp draws the mutation to apply to the next V. The injected-fault
// counters are bumped here, so a caller honouring the returned op keeps
// the counts accurate.
func (h Hook) WakeOp() WakeOp {
	if h.inj == nil {
		return WakeNone
	}
	f := h.st.rng.Float64()
	plan := &h.inj.plan
	if f < plan.DropWake {
		h.inj.drops.Add(1)
		return WakeDrop
	}
	f -= plan.DropWake
	if f < plan.DupWake {
		h.inj.dups.Add(1)
		return WakeDup
	}
	f -= plan.DupWake
	if f < plan.DelayWake {
		h.inj.delays.Add(1)
		return WakeDelay
	}
	return WakeNone
}

// WakeDelayDur returns how long a WakeDelay should stall.
func (h Hook) WakeDelayDur() time.Duration {
	if h.inj == nil {
		return 0
	}
	return h.inj.plan.WakeDelayDur
}

// SetPending records a ref the actor holds in flight (allocated but not
// yet linked, or unlinked but not yet freed). If the actor dies before
// ClearPending, the sweeper's ReclaimPending returns the ref to pool —
// the orphaned-node reclamation half of the recovery story.
func (h Hook) SetPending(pool PoolFreer, ref uint32) {
	if h.inj == nil {
		return
	}
	h.st.mu.Lock()
	h.st.pendingPool = pool
	h.st.pendingRef = ref
	h.st.pendingSet = true
	h.st.mu.Unlock()
}

// SetPendingMsg is SetPending for a dequeue's unlinked old dummy: the
// actor now also holds the message it unlinked, which no queue holds
// any longer. If the actor dies before ClearPending, ReclaimHeld hands
// the message to the sweeper.
func (h Hook) SetPendingMsg(pool PoolFreer, ref uint32, m core.Msg) {
	if h.inj == nil {
		return
	}
	h.st.mu.Lock()
	h.st.pendingPool = pool
	h.st.pendingRef = ref
	h.st.pendingSet = true
	h.st.held, h.st.holding = m, true
	h.st.mu.Unlock()
}

// ClearPending marks the in-flight ref as safely handed over (linked
// into the queue, or freed), and a held message as returned.
func (h Hook) ClearPending() {
	if h.inj == nil {
		return
	}
	h.st.mu.Lock()
	h.st.pendingSet = false
	h.st.pendingPool = nil
	h.st.held, h.st.holding = core.Msg{}, false
	h.st.mu.Unlock()
}
