// Futex model: exhaustive interleaving checking for livebind's
// cross-process semaphore (ProcSem) — the futex-word rendezvous that
// replaces the in-process waiting-array semaphore when the two sides of a
// binding live in different address spaces.
//
// The protocol under test is the classic three-word discipline:
//
//	waiter:  try-acquire; dead-check; waiters++; FUTEX_WAIT(count, 0);
//	         waiters--; retry
//	waker:   count++; if waiters != 0 { FUTEX_WAKE(count) }
//
// Every numbered step is one atomic transition here. The single
// non-obvious ingredient is the kernel's val-check: FUTEX_WAIT parks
// only if the count word still holds the expected value (zero), and
// returns EAGAIN otherwise — one atomic compare-and-park. The model
// demonstrates that this is load-bearing, not an optimisation:
//
//   - with the val-check, no interleaving of wakers and waiters
//     deadlocks, and every terminal state conserves tokens
//     (consumed + count left over == produced);
//   - with NoValCheck (a waiter that parks unconditionally, as a naive
//     "sleep then re-check" implementation would), the checker finds
//     the lost-wake interleaving: the waker's count++ and its
//     waiters==0 skip both land in the window between the waiter's
//     failed try-acquire and its waiters++, and the waiter parks on a
//     token it will never be shown;
//   - with Crash, a waker may die at the worst possible instants —
//     before its increment, or between the increment and the wake it
//     now owes — and the sweeper's poison (dead flag folded into the
//     futex word, then wake-all) still lets every waiter terminate.
//
// The real ProcSem additionally bounds each park with a wait slice, so
// even a hypothetical lost wake costs one slice, not forever. The model
// deliberately omits the slice: it is the backstop, and modelling it
// would mask exactly the bugs this file exists to rule out.
package protomodel

import "fmt"

const (
	maxFWakers  = 3
	maxFWaiters = 2
)

// FutexConfig selects the futex scenario to model-check.
type FutexConfig struct {
	Wakers  int // waker processes in [1,3]
	Tokens  int // tokens each waker releases, in [1,3]
	Waiters int // waiter processes in [1,2]; Wakers*Tokens must split evenly

	// NoValCheck models the naive variant: FUTEX_WAIT parks without
	// re-checking the word. Expected to deadlock (the lost wake).
	NoValCheck bool

	// Crash lets one waker die mid-protocol (before an increment, or
	// between an increment and its wake); a sweeper transition then
	// poisons the semaphore, which must rescue every parked waiter.
	Crash bool
}

// FutexResult summarises the exhaustive exploration.
type FutexResult struct {
	States       int      // distinct states explored
	Deadlock     bool     // some interleaving wedges the system
	DeadlockPath []string // step labels of one wedging interleaving
	Conserved    bool     // every terminal state: consumed+leftover == produced
	Terminal     int      // number of distinct terminal states
	Crashed      bool     // at least one explored path crashed a waker
	Rescued      bool     // some waiter exited via poison (without a token)
}

// Waiter program counters: the ProcSem.P loop.
const (
	fTry    = iota // try-acquire (count CAS)
	fDead          // poison check
	fIncW          // waiters++
	fWait          // FUTEX_WAIT: val-check, then park or EAGAIN
	fParked        // in the kernel; leaves only by a wake pulse
	fUnpark        // waiters--, then retry
	fDone
)

// Waker program counters.
const (
	wkInc     = iota // count++
	wkChk            // waiters != 0 ?
	wkWake           // FUTEX_WAKE(1)
	wkDone           // all tokens released
	wkCrashed        // SIGKILL'd (Crash mode)
)

// fstate is the full exploration state (a value type used as a map
// key, so exploration memoises on the complete state).
type fstate struct {
	count    int8 // the futex word (token count)
	waiters  int8 // advertised-waiter word
	poisoned bool // dead flag + poison bit (one step in ProcSem.Poison)

	wpc      [maxFWaiters]int8
	consumed [maxFWaiters]int8

	kpc      [maxFWakers]int8
	released [maxFWakers]int8

	crashed bool // one crash allowed per path
}

type fsucc struct {
	s     fstate
	label string
}

// FutexCheck exhaustively explores every interleaving of the futex
// wait/wake protocol for the given scenario.
func FutexCheck(cfg FutexConfig) (FutexResult, error) {
	if cfg.Wakers < 1 || cfg.Wakers > maxFWakers {
		return FutexResult{}, fmt.Errorf("protomodel: wakers must be in [1,%d]", maxFWakers)
	}
	if cfg.Tokens < 1 || cfg.Tokens > 3 {
		return FutexResult{}, fmt.Errorf("protomodel: tokens must be in [1,3]")
	}
	if cfg.Waiters < 1 || cfg.Waiters > maxFWaiters {
		return FutexResult{}, fmt.Errorf("protomodel: waiters must be in [1,%d]", maxFWaiters)
	}
	total := cfg.Wakers * cfg.Tokens
	if total%cfg.Waiters != 0 {
		return FutexResult{}, fmt.Errorf("protomodel: %d tokens do not split over %d waiters", total, cfg.Waiters)
	}
	c := &fchecker{cfg: cfg, quota: int8(total / cfg.Waiters), seen: map[fstate]bool{}, conserved: true}
	var init fstate
	for i := 0; i < cfg.Waiters; i++ {
		init.wpc[i] = fTry
	}
	for i := 0; i < cfg.Wakers; i++ {
		init.kpc[i] = wkInc
	}
	c.explore(init, nil)
	c.res.States = len(c.seen)
	c.res.Conserved = c.res.Terminal > 0 && c.conserved
	return c.res, nil
}

type fchecker struct {
	cfg       FutexConfig
	quota     int8
	seen      map[fstate]bool
	res       FutexResult
	conserved bool
}

func (c *fchecker) explore(s fstate, path []string) {
	if c.seen[s] {
		return
	}
	c.seen[s] = true

	var succs []fsucc
	for i := 0; i < c.cfg.Waiters; i++ {
		succs = c.stepWaiter(succs, s, i)
	}
	for i := 0; i < c.cfg.Wakers; i++ {
		succs = c.stepWaker(succs, s, i)
	}
	succs = c.stepSweeper(succs, s)

	if len(succs) > 0 {
		for _, n := range succs {
			c.explore(n.s, pathAppend(path, n.label))
		}
		return
	}

	done := true
	for i := 0; i < c.cfg.Waiters; i++ {
		if s.wpc[i] != fDone {
			done = false
		}
	}
	for i := 0; i < c.cfg.Wakers; i++ {
		if s.kpc[i] != wkDone && s.kpc[i] != wkCrashed {
			done = false
		}
	}
	if done {
		c.res.Terminal++
		var consumed, released int8
		for i := 0; i < c.cfg.Waiters; i++ {
			consumed += s.consumed[i]
		}
		for i := 0; i < c.cfg.Wakers; i++ {
			released += s.released[i]
		}
		if consumed+s.count != released {
			c.conserved = false
		}
		return
	}
	if !c.res.Deadlock {
		c.res.Deadlock = true
		c.res.DeadlockPath = append([]string(nil), path...)
	}
}

func (c *fchecker) stepWaiter(succs []fsucc, s fstate, i int) []fsucc {
	n := s
	switch s.wpc[i] {
	case fTry:
		if s.count > 0 {
			n.count--
			n.consumed[i]++
			if n.consumed[i] == c.quota {
				n.wpc[i] = fDone
			}
			return append(succs, fsucc{n, flabel("W%d acquire", i)})
		}
		n.wpc[i] = fDead
		return append(succs, fsucc{n, flabel("W%d acquire-miss", i)})

	case fDead:
		if s.poisoned {
			// ProcSem.P on a poisoned semaphore returns without a
			// token; the caller's port state reports the peer death.
			n.wpc[i] = fDone
			c.res.Rescued = true
			return append(succs, fsucc{n, flabel("W%d poisoned-exit", i)})
		}
		n.wpc[i] = fIncW
		return append(succs, fsucc{n, flabel("W%d alive", i)})

	case fIncW:
		n.waiters++
		n.wpc[i] = fWait
		return append(succs, fsucc{n, flabel("W%d waiters++", i)})

	case fWait:
		// The kernel's atomic val-check: park only if the word still
		// reads zero. ProcSem's poison bit lives in this same word, so
		// a poisoned semaphore fails the check too.
		if !c.cfg.NoValCheck && (s.count != 0 || s.poisoned) {
			n.wpc[i] = fUnpark
			return append(succs, fsucc{n, flabel("W%d EAGAIN", i)})
		}
		n.wpc[i] = fParked
		return append(succs, fsucc{n, flabel("W%d park", i)})

	case fParked:
		return succs // leaves only by a wake pulse

	case fUnpark:
		n.waiters--
		n.wpc[i] = fTry
		return append(succs, fsucc{n, flabel("W%d waiters--", i)})
	}
	return succs
}

func (c *fchecker) stepWaker(succs []fsucc, s fstate, i int) []fsucc {
	// The crash fault: one waker may die before an increment or while
	// owing a wake. Modelled as extra transitions out of the live
	// states, so every grant-vs-death race is explored both ways.
	if c.cfg.Crash && !s.crashed && (s.kpc[i] == wkInc || s.kpc[i] == wkChk || s.kpc[i] == wkWake) {
		n := s
		n.kpc[i] = wkCrashed
		n.crashed = true
		succs = append(succs, fsucc{n, flabel("K%d crash", i)})
	}
	n := s
	switch s.kpc[i] {
	case wkInc:
		n.count++
		n.released[i]++
		n.kpc[i] = wkChk
		return append(succs, fsucc{n, flabel("K%d count++", i)})

	case wkChk:
		if s.waiters != 0 {
			n.kpc[i] = wkWake
			return append(succs, fsucc{n, flabel("K%d waiters!=0", i)})
		}
		n.kpc[i] = c.afterRelease(n, i)
		return append(succs, fsucc{n, flabel("K%d skip-wake", i)})

	case wkWake:
		// FUTEX_WAKE(1): the kernel picks an arbitrary parked waiter,
		// so each choice is its own branch; with nobody parked the
		// wake is a no-op (the racing waiter's val-check covers it).
		next := c.afterRelease(n, i)
		woke := false
		for w := 0; w < c.cfg.Waiters; w++ {
			if s.wpc[w] == fParked {
				wn := s
				wn.wpc[w] = fUnpark
				wn.kpc[i] = next
				succs = append(succs, fsucc{wn, flabel2("K%d wake W%d", i, w)})
				woke = true
			}
		}
		if !woke {
			n.kpc[i] = next
			succs = append(succs, fsucc{n, flabel("K%d wake-noop", i)})
		}
		return succs
	}
	return succs
}

func (c *fchecker) afterRelease(s fstate, i int) int8 {
	if s.released[i] == int8(c.cfg.Tokens) {
		return wkDone
	}
	return wkInc
}

// stepSweeper models the recovery sweeper's poison: once a crash has
// been (nondeterministically) detected, set the dead flag, fold the
// poison into the futex word, and wake every parked waiter — ProcSem's
// Poison as one locked step against this semaphore's words.
func (c *fchecker) stepSweeper(succs []fsucc, s fstate) []fsucc {
	if !s.crashed || s.poisoned {
		return succs
	}
	n := s
	n.poisoned = true
	for w := 0; w < c.cfg.Waiters; w++ {
		if n.wpc[w] == fParked {
			n.wpc[w] = fUnpark
		}
	}
	c.res.Crashed = true
	return append(succs, fsucc{n, "S poison+wake-all"})
}

func flabel(format string, i int) string { return fmt.Sprintf(format, i) }
func flabel2(format string, i, j int) string {
	return fmt.Sprintf(format, i, j)
}
