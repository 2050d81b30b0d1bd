package livebind

import (
	"context"
	"sync"

	"ulipc/internal/core"
)

// Semaphore is a counting semaphore with System V semantics: P blocks
// while the count is zero; V increments the count or wakes one waiter.
// Like the kernel primitive, V never yields the caller.
//
// It is a waiting array (semarray.go): every waiter, plain or
// cancellable, parks on its own pooled slot in a FIFO ring, and V hands
// its token directly to the oldest parked waiter — one channel send, one
// goroutine made runnable, no barging. Once the semaphore has seen its
// peak number of concurrent waiters, waiting allocates nothing.
//
// Grant and cancel are both decided under the mutex, on the slot: a
// parked wait is either granted by V or cancelled in place, never both.
// A granted waiter returns success even if its context has ended by the
// time it runs ("the reply wins"), so a cancelled wait never consumed a
// token and there is nothing to hand back — the property the protocol
// layer's wake-token accounting (core.receiveLeg) builds on.
type Semaphore struct {
	mu     sync.Mutex
	count  int64
	closed bool
	waitArray
}

// NewSemaphore creates a semaphore with the given initial count.
func NewSemaphore(initial int64) *Semaphore { return &Semaphore{count: initial} }

// NewWaitArraySemaphore is NewSemaphore: every semaphore is a waiting
// array now.
func NewWaitArraySemaphore(initial int64) *Semaphore { return NewSemaphore(initial) }

// P (down) decrements the count, blocking while it is zero. On a closed
// semaphore P returns immediately without consuming a token, so parked
// protocol loops unblock and observe the port state. The return value
// reports whether the call actually slept (parked at least once) — the
// paper's "fell through to the blocking path" distinction, surfaced so
// the binding can attribute sleep time without extra clock reads on the
// non-blocking path.
func (s *Semaphore) P() (slept bool) {
	slept, _ = s.PCtx(nil)
	return slept
}

// PCtx is P with cancellation, and P itself when ctx is nil (the
// Actor's P calls it so, which parks one frame below the Actor). It
// returns nil when a token was consumed; ctx.Err() when the wait was
// cancelled without consuming a token; and core.ErrShutdown when the
// semaphore was closed. Like P, slept reports whether the call actually
// parked.
//
// The park rule: a wait parks on a single receive from its slot unless
// it must also watch a context it has no registration for.
//
//   - P, and a context whose Done is nil, have nothing to watch.
//   - A context the slot's previous wait also used is long-lived: the
//     slot arms context.AfterFunc on it once and keeps the registration
//     until the context changes or the semaphore closes (expire cancels
//     the slot in place).
//   - Any other context parks in a two-case select on the slot and
//     ctx.Done(), which costs no registration — a per-call WithTimeout
//     pays nothing extra.
//
// Arming and disarming run under the mutex, which orders them with
// Close. Neither can re-enter it: AfterFunc runs expire on a goroutine
// of its own, and a stop function never calls back.
func (s *Semaphore) PCtx(ctx context.Context) (slept bool, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, core.ErrShutdown
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
		select {
		case <-done: // polled on Done, an atomic load; a cancelCtx's Err locks
			s.mu.Unlock()
			return false, ctx.Err()
		default:
		}
	}
	if s.count > 0 {
		s.count--
		s.mu.Unlock()
		return false, nil
	}
	w := s.pushLocked(ctx != nil)
	single := done == nil
	if !single && (done == w.armed || done == w.seen) {
		if done != w.armed {
			w.disarm()
			w.stop = context.AfterFunc(ctx, func() { s.expire(w, done) })
			w.armed = done
		}
		w.watch, single = done, true
	}
	w.seen = done
	s.mu.Unlock()

	if single {
		<-w.ch // granted, closed, or expired by the registration
	} else {
		select {
		case <-w.ch:
		case <-done:
			s.mu.Lock()
			if w.state == waWaiting {
				s.cancelLocked(w)
			} else {
				<-w.ch // the grant or close was decided first: it wins
			}
			s.mu.Unlock()
		}
	}
	s.mu.Lock()
	state := w.state
	s.releaseLocked(w)
	s.mu.Unlock()
	switch state {
	case waGranted:
		return true, nil
	case waClosed:
		return true, core.ErrShutdown
	}
	return true, ctx.Err()
}

// expire is the AfterFunc callback of a slot armed on done: if the slot
// is still parked by a wait relying on that registration, cancel it in
// place and wake the waiter. A registration that fires for a slot that
// moved on finds it granted, free or watching another context, and does
// nothing.
func (s *Semaphore) expire(w *waSlot, done <-chan struct{}) {
	s.mu.Lock()
	if w.state == waWaiting && w.watch == done {
		s.cancelLocked(w)
		w.ch <- struct{}{}
	}
	s.mu.Unlock()
}

// V (up) hands a token directly to the oldest parked waiter, or
// increments the count if none is parked. Vs on a closed semaphore are
// dropped (every waiter has already been released and no new ones
// arrive). The return value reports whether the V woke a sleeper (the
// paper's "expensive wake-up system call" as opposed to a redundant V).
func (s *Semaphore) V() (woke bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if w := s.popLocked(); w != nil {
		w.state = waGranted
		w.ch <- struct{}{}
		return true
	}
	s.count++
	return false
}

// Close releases every parked waiter without granting tokens, makes all
// subsequent P calls non-blocking (PCtx returns core.ErrShutdown), and
// stops every AfterFunc registration its slots hold. Idempotent.
func (s *Semaphore) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for w := s.popLocked(); w != nil; w = s.popLocked() {
		w.state = waClosed
		w.ch <- struct{}{}
	}
	for _, w := range s.slots {
		w.disarm()
	}
}

// Count returns the current count (diagnostics).
func (s *Semaphore) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Waiters returns the number of parked cancellable waiters (diagnostics
// and tests).
func (s *Semaphore) Waiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.npctx
}

// Sleeping returns the number of plain P calls currently parked
// (diagnostics; the recovery sweeper's lost-wake heuristic needs to
// know whether anyone is actually asleep on the semaphore).
func (s *Semaphore) Sleeping() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.nplain)
}
