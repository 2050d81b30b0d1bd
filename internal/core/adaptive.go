package core

import (
	"sync/atomic"
	"time"
)

// Tuner is BSA's online controller: one per channel consumer, tuning
// that consumer's spin budget (and the producer-side nap scale) from
// the feedback the paper leaves on the table. BSLS answers the
// spin-vs-block tradeoff once, at compile time, with MAX_SPIN=20; the
// controller answers it continuously:
//
//   - Every wait reports how long the spin prefix ran and whether it
//     fell through to the blocking path (Observe). Successful spins
//     feed an EWMA of the arrival lag; the budget tracks 2x that EWMA,
//     so a reply that usually lands after k polls is awaited ~2k polls
//     before paying the park/wake pair.
//   - A high fall-through (slept-wake) ratio is the oversubscription
//     signature — more runnable parties than processors, where spinning
//     only steals cycles from whoever would produce the message. The
//     controller then backs the budget off multiplicatively and
//     stretches the queue-full naps (NapScale), the same positive-
//     feedback break the Section 5 throttle applies from the outside.
//
// Budget is read on the hot path with one atomic load from the same
// struct the owning consumer just wrote — per-handle tuners mean the
// line stays in that consumer's cache, so consulting the live
// controller costs no more than the static MaxSpin field it replaces.
// The EWMA state is owned by the consumer goroutine (handles are
// single-goroutine by contract); only budget, nap scale and the
// decision counters are atomic, because metrics exporters read them
// from other goroutines.
type Tuner struct {
	budget atomic.Int64 // current spin budget, poll iterations
	nap    atomic.Int64 // queue-full nap scale, fixed-point /256 (256 = 1x)

	// EWMA state, fixed-point, owned by the waiting goroutine.
	ewmaSpin int64 // successful spin length x16
	ewmaFell int64 // fall-through indicator x1024

	min, max int64

	// Decision counters for the observability layer.
	Polls     atomic.Int64 // Observe calls (one per wait with a spin prefix)
	FallThrus atomic.Int64 // waits whose spin budget expired (slept)
	Grows     atomic.Int64 // budget raised
	Shrinks   atomic.Int64 // budget lowered (tracking shorter arrivals)
	Backoffs  atomic.Int64 // budget halved by the oversubscription guard
}

// TunerConfig bounds the controller. Zero values pick the defaults:
// Initial = DefaultMaxSpin (the paper's MAX_SPIN, so an idle BSA
// channel starts exactly where hand-tuned BSLS starts), Min = 2,
// Max = 512.
type TunerConfig struct {
	Initial int
	Min     int
	Max     int
}

// Default controller bounds.
const (
	DefaultSpinMin = 2
	DefaultSpinMax = 512
)

// NewTuner builds a controller with the given bounds.
func NewTuner(cfg TunerConfig) *Tuner {
	t := &Tuner{}
	t.min, t.max = int64(cfg.Min), int64(cfg.Max)
	if t.min <= 0 {
		t.min = DefaultSpinMin
	}
	if t.max <= 0 {
		t.max = DefaultSpinMax
	}
	if t.max < t.min {
		t.max = t.min
	}
	init := int64(cfg.Initial)
	if init <= 0 {
		init = DefaultMaxSpin
	}
	t.budget.Store(clamp64(init, t.min, t.max))
	t.ewmaSpin = t.budget.Load() << 3 // half the budget, x16
	t.nap.Store(256)
	return t
}

// Budget returns the current spin budget (the hot-path read).
func (t *Tuner) Budget() int { return int(t.budget.Load()) }

// NapScale scales a producer's queue-full nap: 1x normally, stretched
// up to 4x while the oversubscription guard is backing off.
func (t *Tuner) NapScale(d time.Duration) time.Duration {
	s := t.nap.Load()
	if s == 256 {
		return d
	}
	return d * time.Duration(s) / 256
}

// EWMA smoothing: new = old + (sample - old)/ewmaDiv.
const ewmaDiv = 8

// Observe feeds back one wait: the spin prefix ran spun iterations,
// and fell reports whether it expired with the queue still empty (the
// wait went on to park). Called by the owning consumer goroutine only.
func (t *Tuner) Observe(spun int, fell bool) {
	t.Polls.Add(1)
	if fell {
		t.FallThrus.Add(1)
		t.ewmaFell += (1024 - t.ewmaFell) / ewmaDiv
	} else {
		t.ewmaFell -= t.ewmaFell / ewmaDiv
		t.ewmaSpin += (int64(spun)<<4 - t.ewmaSpin) / ewmaDiv
	}

	cur := t.budget.Load()
	var target int64
	oversub := t.ewmaFell > 512 // most recent waits slept anyway
	if oversub {
		target = clamp64(cur/2, t.min, t.max)
	} else {
		target = clamp64(2*(t.ewmaSpin>>4)+1, t.min, t.max)
	}
	// Step halfway to the target each wait: geometric smoothing without
	// a second EWMA, so one outlier arrival cannot whipsaw the budget.
	next := cur + (target-cur)/2
	if next == cur && target != cur {
		if target > cur {
			next = cur + 1
		} else {
			next = cur - 1
		}
	}
	switch {
	case next > cur:
		t.Grows.Add(1)
	case next < cur && oversub:
		t.Backoffs.Add(1)
	case next < cur:
		t.Shrinks.Add(1)
	}
	if next != cur {
		t.budget.Store(next)
	}

	// Nap scale follows the oversubscription signal: stretch toward 4x
	// while backing off, relax toward 1x otherwise.
	nap := t.nap.Load()
	if oversub && nap < 1024 {
		t.nap.Store(nap * 2)
	} else if !oversub && nap > 256 {
		t.nap.Store(nap / 2)
	}
}

// TunerSnapshot is a point-in-time view of one controller, for the
// metrics exporters.
type TunerSnapshot struct {
	Budget    int64 `json:"budget"`
	Polls     int64 `json:"polls"`
	FallThrus int64 `json:"fall_thrus"`
	Grows     int64 `json:"grows"`
	Shrinks   int64 `json:"shrinks"`
	Backoffs  int64 `json:"backoffs"`
}

// Snapshot reads the controller's gauge and decision counters.
func (t *Tuner) Snapshot() TunerSnapshot {
	return TunerSnapshot{
		Budget:    t.budget.Load(),
		Polls:     t.Polls.Load(),
		FallThrus: t.FallThrus.Load(),
		Grows:     t.Grows.Load(),
		Shrinks:   t.Shrinks.Load(),
		Backoffs:  t.Backoffs.Load(),
	}
}

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
