package livebind

import (
	"context"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/shm"
)

// DefaultWaitSlice bounds how long a ProcSem waiter stays parked in the
// kernel before re-checking its condition. The slice is not a poll — a
// futex wake still ends the wait immediately — it is the backstop that
// caps how long a process can hang if its waker died at the worst
// possible instant (between the count increment and the FUTEX_WAKE) and
// the sweeper's poison somehow raced past it.
const DefaultWaitSlice = 20 * time.Millisecond

// ProcSem is the cross-process counting semaphore: the futex-backed
// replacement for Semaphore when the two sides of a binding live in
// different address spaces. All of its state is three words in a mapped
// shm.SemSlot — count (the futex word), waiters (gates the wake
// syscall), and the poison flag the recovery sweeper sets to turn
// parked waits into prompt returns.
//
// The blocking discipline mirrors Semaphore's shutdown semantics: P on
// a poisoned semaphore returns without a token (callers consult their
// port's Closed/PeerDead state, exactly as after Semaphore.Close), and
// a cancelled PCtx never consumes a token — a count granted while
// cancellation raced in simply stays in the count word for the next P,
// so tokens are conserved without a hand-back path.
//
// Lost-wake freedom is the futex val-check: a waiter advertises itself
// in Waiters, then asks the kernel to sleep only if Count is still
// zero. A V that increments Count before the waiter's syscall makes the
// kernel refuse the sleep (EAGAIN); a V that increments after it finds
// Waiters non-zero and issues the wake. Either order, the token is
// seen. internal/protomodel checks this interleaving exhaustively.
type ProcSem struct {
	s     *shm.SemSlot
	slice time.Duration
}

// NewProcSem wraps a mapped semaphore slot. slice bounds each parked
// wait (DefaultWaitSlice if <= 0).
func NewProcSem(s *shm.SemSlot, slice time.Duration) *ProcSem {
	if slice <= 0 {
		slice = DefaultWaitSlice
	}
	return &ProcSem{s: s, slice: slice}
}

// semPoisonBit is folded into the count word by Poison. Keeping the
// poison visible in the futex word itself — not just the Dead flag —
// matters for the polling backend, whose waiters watch only the word
// they parked on: a flag stored elsewhere would leave them sleeping out
// their full slice. (The futex backend gets the same benefit for free:
// a FUTEX_WAIT racing the poison sees a changed word and refuses to
// sleep.)
const semPoisonBit uint32 = 1 << 31

// tryAcquire consumes one token if any are available.
func (p *ProcSem) tryAcquire() bool {
	for {
		c := p.s.Count.Load()
		if c&^semPoisonBit == 0 {
			return false
		}
		if p.s.Count.CompareAndSwap(c, c-1) {
			return true
		}
	}
}

// P consumes a token, parking on the futex word until one arrives. It
// reports whether the call actually slept (the protocols' block
// accounting). On a poisoned semaphore P returns without a token.
func (p *ProcSem) P() (slept bool) {
	slept, _ = p.PCtx(nil)
	return slept
}

// PCtx is P with cancellation, and P itself when ctx is nil. It returns
// nil when a token was consumed, ctx.Err() when cancelled without
// consuming one, and core.ErrShutdown when the semaphore is poisoned
// (the caller's port state distinguishes orderly shutdown from peer
// death).
func (p *ProcSem) PCtx(ctx context.Context) (slept bool, err error) {
	for {
		if p.tryAcquire() {
			return slept, nil
		}
		if p.s.Dead.Load() != 0 {
			return slept, core.ErrShutdown
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return slept, err
			}
		}
		p.s.Waiters.Add(1)
		futexWait(&p.s.Count, 0, p.slice)
		p.s.Waiters.Add(^uint32(0))
		slept = true
	}
}

// V releases one token and wakes a parked waiter if there (plausibly)
// is one. It reports whether a wake syscall was issued — the protocols'
// wake-up accounting. V on a poisoned semaphore is dropped: the slot's
// owner is gone, and parking a token there would hide it from the
// post-mortem audit.
func (p *ProcSem) V() (woke bool) {
	if p.s.Dead.Load() != 0 {
		return false
	}
	p.s.Count.Add(1)
	if p.s.Waiters.Load() != 0 {
		futexWake(&p.s.Count, 1)
		return true
	}
	return false
}

// Poison marks the semaphore dead and wakes every parked waiter. Called
// by the recovery sweeper (peer death) and by graceful teardown; it is
// idempotent and safe from any process.
func (p *ProcSem) Poison() {
	p.s.Dead.Store(1)
	// Fold the poison into the futex word AFTER the flag store: a
	// waiter that sees the word change re-checks Dead and finds it set.
	for {
		c := p.s.Count.Load()
		if c&semPoisonBit != 0 {
			break
		}
		if p.s.Count.CompareAndSwap(c, c|semPoisonBit) {
			break
		}
	}
	futexWake(&p.s.Count, 1<<30)
}

// Poisoned reports whether the semaphore has been poisoned.
func (p *ProcSem) Poisoned() bool { return p.s.Dead.Load() != 0 }

// Count exposes the token count (diagnostics and the token-conservation
// assertions in tests).
func (p *ProcSem) Count() int64 { return int64(p.s.Count.Load() &^ semPoisonBit) }

// Waiters exposes the advertised waiter count (diagnostics).
func (p *ProcSem) Waiters() int { return int(p.s.Waiters.Load()) }
