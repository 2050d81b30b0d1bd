// Waiting-array model: exhaustive interleaving checking for
// livebind.Semaphore (semaphore.go, semarray.go) under the cancellable
// consumer wait (core.receiveLeg) — the parking path of every
// in-process protocol.
//
// The semaphore guards every operation with one mutex, so each locked
// section is a single atomic step here, named after the function it
// models:
//
//   - "C PCtx-fast" / "C park(slot)": Semaphore.wait under the mutex —
//     the count fast path, else pushLocked parks the consumer on a slot.
//   - "Pn.V": Semaphore.V — popLocked grants the oldest parked slot
//     directly (absorbing holes), else the count is credited.
//   - "X expire": a cancellation deciding the wait — Semaphore.expire,
//     the AfterFunc callback of an armed slot, or the select arm of
//     Semaphore.wait; both run cancelLocked on a slot that is still
//     waiting. It is a nondeterministic locked step, enabled only while
//     the slot waits: grant and cancel are decided under the same mutex,
//     so whichever comes first wins and the other finds nothing to do.
//     There is no hand-back — a granted wait returns success.
//   - "C granted" / "C cancelled": Semaphore.wait returning after its
//     receive, with the slot's decided state (releaseLocked).
//   - "C cxl-P…": the plain Semaphore.P the cancel path of
//     receiveLeg runs to claim a V it owes.
//
// The consumer runs the Figure 4 shape with the cancel-path token
// accounting of receiveLeg: after a cancelled wait it re-runs the
// TAS drain before retrying, so a token destined for it is never lost
// and never double-counted.
//
// Verified claims (WArrayCheck):
//   - no interleaving deadlocks (no lost wake-up, even with cancels
//     striking at every parked state);
//   - every terminal state consumed every message;
//   - the semaphore count at quiescence is at most 1 (the one
//     redundant-V credit the TAS discipline permits transiently, never
//     an accumulating leak).
package protomodel

import "fmt"

// WArrayConfig selects the waiting-array scenario to model-check.
type WArrayConfig struct {
	Producers int // producer processes in [1,3]
	Msgs      int // messages each producer enqueues, in [1,4]

	// MaxCancels bounds the nondeterministic cancellations injected
	// while the consumer is parked. The bound must be finite: an
	// always-enabled cancel would give every parked state an outgoing
	// transition and mask genuine lost-wake deadlocks as livelocks.
	MaxCancels int
}

// WArrayResult summarises the exhaustive exploration.
type WArrayResult struct {
	States       int      // distinct states explored
	Deadlock     bool     // some interleaving wedges the system
	DeadlockPath []string // step labels of one wedging interleaving
	MaxSem       int      // highest count over all interleavings
	TermSemMax   int      // highest count over terminal states (quiescence)
	AllConsumed  bool     // every terminal state consumed every message
	Terminal     int      // number of distinct terminal states
	Cancelled    bool     // at least one explored path cancelled a park
}

// Consumer program counters: the receiveLeg shape, plus the
// cancel-path drain (wCxl*) it runs after a cancelled park.
const (
	wTop       = iota // dequeue attempt
	wClear            // awake <- false
	wDeq2             // second dequeue attempt
	wDrain            // tas(awake) after a successful second dequeue
	wDrainP           // drain the pending V
	wPark             // PCtx: fast path or park on a waiting-array slot
	wParked           // parked; wakes by direct grant (or cancels)
	wWake             // awake <- true
	wCxl              // cancelled: tas(awake) token accounting
	wCxlP             // cancelled with a signal pending: P to claim it
	wCxlParked        // the claim parked (plain P on the waiting array)
	wCxlDeq           // claimed the token: dequeue the message it covers
	wDone
)

// Waiting-array slot states for the (single) consumer's slot. A
// cancelled slot is a hole the next V absorbs in the same locked step
// that grants a live waiter, so V treats it like no slot at all;
// slotCancelled only records that the consumer has yet to wake and see
// its wait was cancelled.
const (
	slotNone int8 = iota
	slotWaiting
	slotGranted
	slotCancelled
)

// wstate is the full exploration state (a value type used as a map
// key, so exploration memoises on the complete state).
type wstate struct {
	queue    int8
	awake    bool
	sem      int8 // semaphore count (tokens not yet granted directly)
	slot     int8 // the consumer's waiting-array slot
	consumed int8
	cancels  int8 // cancellations injected so far

	cpc  int8
	ppc  [maxProducers]int8
	sent [maxProducers]int8
}

// WArrayCheck exhaustively explores every interleaving of the
// waiting-array consumer wait against TAS+V producers with injected
// cancellations.
func WArrayCheck(cfg WArrayConfig) (WArrayResult, error) {
	if cfg.Producers < 1 || cfg.Producers > maxProducers {
		return WArrayResult{}, fmt.Errorf("protomodel: producers must be in [1,%d]", maxProducers)
	}
	if cfg.Msgs < 1 || cfg.Msgs > 4 {
		return WArrayResult{}, fmt.Errorf("protomodel: msgs must be in [1,4]")
	}
	if cfg.MaxCancels < 0 || cfg.MaxCancels > 4 {
		return WArrayResult{}, fmt.Errorf("protomodel: max cancels must be in [0,4]")
	}
	c := &wchecker{cfg: cfg, target: int8(cfg.Producers * cfg.Msgs), seen: map[wstate]bool{}, allConsumed: true}
	init := wstate{awake: true, cpc: wTop}
	for i := 0; i < cfg.Producers; i++ {
		init.ppc[i] = pEnq
	}
	c.explore(init, nil)
	c.res.States = len(c.seen)
	c.res.AllConsumed = c.res.Terminal > 0 && c.allConsumed
	return c.res, nil
}

type wchecker struct {
	cfg         WArrayConfig
	target      int8
	seen        map[wstate]bool
	res         WArrayResult
	allConsumed bool
}

func (c *wchecker) explore(s wstate, path []string) {
	if c.seen[s] {
		return
	}
	c.seen[s] = true
	if int(s.sem) > c.res.MaxSem {
		c.res.MaxSem = int(s.sem)
	}

	moved := false
	if ns, label, ok := c.stepConsumer(s); ok {
		moved = true
		c.explore(ns, pathAppend(path, label))
	}
	// Cancellation is a second, independent transition out of the
	// parked states, so grant-vs-cancel races are explored both ways.
	if ns, label, ok := c.stepCancel(s); ok {
		moved = true
		c.res.Cancelled = true
		c.explore(ns, pathAppend(path, label))
	}
	for i := 0; i < c.cfg.Producers; i++ {
		if ns, label, ok := c.stepWProducer(s, i); ok {
			moved = true
			c.explore(ns, pathAppend(path, label))
		}
	}
	if moved {
		return
	}

	producersDone := true
	for i := 0; i < c.cfg.Producers; i++ {
		if s.ppc[i] != pDone {
			producersDone = false
		}
	}
	if s.cpc == wDone && producersDone {
		c.res.Terminal++
		if s.consumed != c.target {
			c.allConsumed = false
		}
		if int(s.sem) > c.res.TermSemMax {
			c.res.TermSemMax = int(s.sem)
		}
		return
	}
	if !c.res.Deadlock {
		c.res.Deadlock = true
		c.res.DeadlockPath = append([]string(nil), path...)
	}
}

// stepConsumer executes the consumer's enabled step, if any.
func (c *wchecker) stepConsumer(s wstate) (wstate, string, bool) {
	switch s.cpc {
	case wTop:
		if s.queue > 0 {
			s.queue--
			s.consumed++
			s.cpc = c.afterConsume(s.consumed)
			return s, "C dequeue-ok", true
		}
		s.cpc = wClear
		return s, "C dequeue-empty", true

	case wClear:
		s.awake = false
		s.cpc = wDeq2
		return s, "C awake=0", true

	case wDeq2:
		if s.queue > 0 {
			s.queue--
			s.consumed++
			s.cpc = wDrain
			return s, "C deq2-ok", true
		}
		s.cpc = wPark
		return s, "C deq2-empty", true

	case wDrain:
		old := s.awake
		s.awake = true
		if old {
			s.cpc = wDrainP
		} else {
			s.cpc = c.afterConsume(s.consumed)
		}
		return s, "C tas(awake)", true

	case wDrainP:
		// Claim the pending redundant V. A count of zero means the
		// producer has not issued it yet; the claim would park and be
		// granted directly — same observable step.
		if s.sem > 0 {
			s.sem--
			s.cpc = c.afterConsume(s.consumed)
			return s, "C P(drain)", true
		}
		return s, "", false

	case wPark:
		// Semaphore.wait: count fast path, else park on a slot.
		if s.sem > 0 {
			s.sem--
			s.cpc = wWake
			return s, "C PCtx-fast", true
		}
		s.slot = slotWaiting
		s.cpc = wParked
		return s, "C park(slot)", true

	case wParked:
		switch s.slot {
		case slotGranted:
			// The grant hand-off: the token was delivered directly to
			// this slot, never through the count.
			s.slot = slotNone
			s.cpc = wWake
			return s, "C granted", true
		case slotCancelled:
			s.slot = slotNone
			s.cpc = wCxl
			return s, "C cancelled", true
		}
		return s, "", false // parked until a V grants (or an expiry strikes)

	case wWake:
		s.awake = true
		s.cpc = wTop
		return s, "C awake=1", true

	case wCxl:
		// receiveLeg cancel path: TAS the flag back; if a producer
		// had signalled, a token is owed — claim it before returning.
		old := s.awake
		s.awake = true
		if old {
			s.cpc = wCxlP
		} else {
			s.cpc = wTop // retry (the caller re-enters the wait)
		}
		return s, "C cxl-tas", true

	case wCxlP:
		// Semaphore.P: count fast path, else park.
		if s.sem > 0 {
			s.sem--
			s.cpc = wCxlDeq
			return s, "C cxl-P-fast", true
		}
		s.slot = slotWaiting
		s.cpc = wCxlParked
		return s, "C cxl-park", true

	case wCxlParked:
		if s.slot == slotGranted {
			s.slot = slotNone
			s.cpc = wCxlDeq
			return s, "C cxl-granted", true
		}
		return s, "", false

	case wCxlDeq:
		if s.queue > 0 {
			s.queue--
			s.consumed++
			s.cpc = c.afterConsume(s.consumed)
			return s, "C cxl-deq-ok", true
		}
		s.cpc = wTop
		return s, "C cxl-deq-empty", true
	}
	return s, "", false
}

// stepCancel injects a cancellation at a parked PCtx, if the budget
// allows: Semaphore.expire (or wait's select arm) running cancelLocked.
// It is enabled only while the slot still waits — once V has granted
// it, the grant has won and the cancellation finds nothing to decide.
// The consumer wakes in a later step ("C cancelled"), so a V may run in
// between and find only a hole.
//
// Only the cancellable park (wParked) cancels; wCxlParked models a
// plain P, which has no cancel path.
func (c *wchecker) stepCancel(s wstate) (wstate, string, bool) {
	if s.cpc != wParked || s.slot != slotWaiting || int(s.cancels) >= c.cfg.MaxCancels {
		return s, "", false
	}
	s.cancels++
	s.slot = slotCancelled
	return s, "X expire", true
}

// afterConsume mirrors checker.afterConsume for the waiting-array pcs.
func (c *wchecker) afterConsume(consumed int8) int8 {
	if consumed >= c.target {
		return wDone
	}
	return wTop
}

// stepWProducer executes producer i's enabled step: the TAS+V
// discipline with Semaphore.V — direct grant to a parked slot, else a
// count credit.
func (c *wchecker) stepWProducer(s wstate, i int) (wstate, string, bool) {
	name := func(step string) string { return fmt.Sprintf("P%d.%s", i+1, step) }
	switch s.ppc[i] {
	case pEnq:
		s.queue++
		s.sent[i]++
		s.ppc[i] = pTAS
		return s, name("enqueue"), true

	case pTAS:
		old := s.awake
		s.awake = true
		if !old {
			s.ppc[i] = pV
		} else {
			s.ppc[i] = c.nextWMsg(s, i)
		}
		return s, name("tas(awake)"), true

	case pV:
		// popLocked: grant the oldest live waiter directly (a hole is
		// absorbed — see stepCancel); with no waiter the token goes to
		// the count.
		if s.slot == slotWaiting {
			s.slot = slotGranted
		} else {
			s.sem++
		}
		s.ppc[i] = c.nextWMsg(s, i)
		return s, name("V"), true
	}
	return s, "", false
}

func (c *wchecker) nextWMsg(s wstate, i int) int8 {
	if int(s.sent[i]) >= c.cfg.Msgs {
		return pDone
	}
	return pEnq
}
