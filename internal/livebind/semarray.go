package livebind

// The waiting array behind Semaphore: one FIFO ring of per-waiter
// slots. Every waiter parks on its own slot's channel; V pops the head
// slot and hands the token to that waiter directly, absorbing cancelled
// holes as it walks. Cancel marks the waiter's own slot in place, O(1),
// leaving a hole for V, Close or the compactor to absorb.
//
// A slot has two owners that release it independently: the ring (while
// inRing) and its waiter (while held). Whichever lets go last puts the
// slot on the semaphore's free list, whose slots always have an empty
// channel — so a grant from a previous life can never reach the next
// waiter. Every field below is guarded by the owning Semaphore's mutex.

// waSlot states.
const (
	waWaiting   int8 = iota // parked, in the ring
	waGranted               // V delivered a token
	waCancelled             // the wait ended without a token; the slot is a hole
	waClosed                // Close released the waiter without a token
)

// waSlot is one waiter's private hand-off cell. The channel has capacity
// 1 so a granter never blocks while holding the semaphore mutex; the
// state changes under that mutex before the send, so a waiter that
// receives can trust the state it then reads.
type waSlot struct {
	ch     chan struct{}
	state  int8
	pctx   bool // cancellable (PCtx) waiter, for the diagnostics split
	inRing bool
	held   bool
	next   *waSlot // free-list link

	// The context cache of the park rule (Semaphore.wait). seen is the
	// Done channel of the slot's previous cancellable wait; armed is the
	// one an AfterFunc registration (stopped by stop) watches; watch is
	// the Done channel the current wait relies on that registration for.
	seen, armed, watch <-chan struct{}
	stop               func() bool
}

// disarm stops the slot's AfterFunc registration, if it has one.
func (w *waSlot) disarm() {
	if w.stop != nil {
		w.stop()
		w.stop, w.armed = nil, nil
	}
}

// waitArray is the ring of parked waiters and the slots behind it.
// ring[head:] is the active FIFO region; holes counts cancelled slots
// still inside it.
type waitArray struct {
	ring   []*waSlot
	head   int
	holes  int
	npctx  int // parked cancellable waiters (Waiters())
	nplain int // parked plain-P waiters (Sleeping())
	free   *waSlot
	slots  []*waSlot // every slot ever made, so Close can disarm them all
}

// pushLocked parks a new waiter at the tail of the ring, on a recycled
// slot when one is free.
func (wa *waitArray) pushLocked(pctx bool) *waSlot {
	w := wa.free
	if w != nil {
		wa.free = w.next
	} else {
		w = &waSlot{ch: make(chan struct{}, 1)}
		wa.slots = append(wa.slots, w)
	}
	w.state, w.pctx, w.inRing, w.held, w.watch = waWaiting, pctx, true, true, nil
	wa.ring = append(wa.ring, w)
	wa.tally(w, 1)
	return w
}

// tally moves the parked count of w's kind (Waiters or Sleeping) by d.
func (wa *waitArray) tally(w *waSlot, d int) {
	if w.pctx {
		wa.npctx += d
	} else {
		wa.nplain += d
	}
}

// releaseLocked is the waiter letting go of its slot.
func (wa *waitArray) releaseLocked(w *waSlot) {
	w.held = false
	wa.recycle(w)
}

// recycle frees a slot neither the ring nor a waiter holds.
func (wa *waitArray) recycle(w *waSlot) {
	if !w.inRing && !w.held {
		w.next = wa.free
		wa.free = w
	}
}

// popLocked removes and returns the oldest live waiter, absorbing holes
// on the way; nil if no live waiter is parked. Once the consumed prefix
// is at least half the ring, the live region slides to the front, so a
// waiter that never leaves the ring (an idle pool worker) does not make
// it grow by a slot per grant. A slide copies no more slots than were
// consumed since the last one: amortised O(1) per pop.
func (wa *waitArray) popLocked() *waSlot {
	for wa.head < len(wa.ring) {
		w := wa.ring[wa.head]
		wa.ring[wa.head] = nil
		wa.head++
		if wa.head*2 >= len(wa.ring) {
			n := copy(wa.ring, wa.ring[wa.head:])
			clear(wa.ring[wa.head:]) // [n:head] was nilled as it was consumed
			wa.ring = wa.ring[:n]
			wa.head = 0
		}
		w.inRing = false
		if w.state == waCancelled {
			wa.holes--
			wa.recycle(w)
			continue
		}
		wa.tally(w, -1)
		return w
	}
	return nil
}

// cancelLocked turns a parked waiter's slot into a hole in place. When
// holes dominate the active region the ring is compacted, keeping the
// amortized cost constant even under cancel storms with no V traffic to
// absorb the holes.
func (wa *waitArray) cancelLocked(w *waSlot) {
	w.state = waCancelled
	wa.holes++
	wa.tally(w, -1)
	if wa.holes > 16 && wa.holes*2 > len(wa.ring)-wa.head {
		wa.compactLocked()
	}
}

// compactLocked rewrites the ring with only live waiters. The in-place
// copy is safe: the write index never overtakes the read index.
func (wa *waitArray) compactLocked() {
	live := wa.ring[:0]
	for _, w := range wa.ring[wa.head:] {
		if w.state == waCancelled {
			wa.holes--
			w.inRing = false
			wa.recycle(w)
			continue
		}
		live = append(live, w)
	}
	clear(wa.ring[len(live):])
	wa.ring = live
	wa.head = 0
}
