package core

import (
	"context"
	"time"

	"ulipc/internal/metrics"
	"ulipc/internal/obs"
)

// This file contains the shared building blocks of the four protocols,
// transcribed from the paper's Figures 1, 5, 7 and 9, plus their
// context-threaded variants (cancellation, deadlines, shutdown).

// enqueueOrSleep implements the producer-side queue-full handling common
// to Send and Reply: "the process will sleep for at least one second...
// the queue full condition seldom occurs and the implication is that the
// consumer is saturated". It reports false — without enqueueing — when
// the port shut down (or started refusing new messages) underneath the
// retry loop. The producer side needs only the enqueue operation, so it
// accepts any endpoint flavour (Port or PoolPort).
func enqueueOrSleep(q interface{ TryEnqueue(Msg) bool }, a Actor, m Msg) bool {
	for {
		if portRefusing(q) {
			return false
		}
		if q.TryEnqueue(m) {
			return true
		}
		a.SleepSec(1)
	}
}

// enqueueOrSleepCtx is enqueueOrSleep with cancellation and bounded
// retry-with-backoff: instead of the paper's flat sleep(1) forever, the
// nap ceiling doubles (1, 2, 4, 8 "seconds", scaled by the actor's
// sleep scale) with uniform jitter below it (see backoff), and the
// loop gives up when ctx ends, the port refuses, or the optional retry
// budget runs dry (ErrOverload). Each retry is counted in pm.Retries;
// each successful enqueue credits the budget.
func enqueueOrSleepCtx(ctx context.Context, q interface{ TryEnqueue(Msg) bool }, a Actor, m Msg, pm *metrics.Proc, budget *RetryBudget) error {
	ca, _ := a.(CtxActor)
	var bo backoff
	for {
		if portRefusing(q) {
			return shutdownErr(q)
		}
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if q.TryEnqueue(m) {
			budget.credit()
			return nil
		}
		if err := bo.sleep(ctx, ca, budget, pm); err != nil {
			return err
		}
	}
}

// ctxErr is ctx.Err() for the hot-path polls: a non-blocking receive on
// ctx.Done() — an atomic load once the channel exists — where a
// cancelCtx's Err takes its mutex. A nil Done never ends; once Done is
// closed the answer comes from ctx.Err().
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// wakeConsumer implements steps P.2/P.3 with the Figure 4 race-2 fix:
// test-and-set ensures only the first producer to find the awake flag
// clear issues the (expensive) wake-up system call.
//
//	if( !tas( &(Q->awake) ) ) V( sem );
func wakeConsumer(q Port, a Actor) bool {
	if !q.TASAwake() {
		a.V(q.Sem())
		return true
	}
	return false
}

// consumerWait implements the consumer side of the blocking protocol
// (steps C.1–C.5 of Figure 4 with both race fixes), shared by BSW, BSWY
// and BSLS:
//
//	while( !dequeue( Q, msg ) ) {
//	    <preWait hook — BSWY's busy_wait "try to handoff">
//	    Q->awake = 0;
//	    if( !dequeue( Q, msg ) ) {
//	        P( sem );          /* wait for producer */
//	        Q->awake = 1;
//	    } else {               /* message ready */
//	        if( tas( &Q->awake ) ) P( sem ); /* fix race condition */
//	        break;
//	    }
//	}
//
// The second dequeue (step C.3) is required because a producer may check
// the awake flag after the first dequeue fails but before the flag is
// cleared (Execution Interleaving 4 — the consumer would sleep forever).
// The tas on the success path drains a pending redundant wake-up so the
// semaphore count cannot accumulate (Execution Interleaving 3).
// Shutdown interacts with the loop through the port state: a closed
// port's semaphore no longer blocks, so a parked consumer wakes, drains
// any message still queued (the first dequeue of the next iteration)
// and otherwise returns the OpShutdown marker.
func consumerWait(q Port, a Actor, preWait func()) Msg {
	for {
		if m, ok := q.TryDequeue(); ok {
			return m
		}
		if portClosed(q) {
			return ShutdownMsg()
		}
		if preWait != nil {
			preWait()
		}
		q.SetAwake(false)
		if m, ok := q.TryDequeue(); ok {
			// Reply/request arrived between the dequeues: re-set the
			// flag ourselves; if a producer already set it, it has also
			// issued a V we must consume without blocking.
			if q.TASAwake() {
				a.P(q.Sem())
			}
			return m
		}
		a.P(q.Sem())
		q.SetAwake(true)
	}
}

// consumerWaitCtx is consumerWait with cancellation, deadline and
// shutdown support. The delicate part is the wake-token accounting on
// the cancel path — the Figure 4 awake-flag race, revisited under
// cancellation:
//
//   - PCtx guarantees that a cancelled wait consumed NO token: grant
//     and cancellation are decided in one step inside the semaphore, and
//     a wait granted first returns success even if its context has
//     since ended (the reply wins).
//   - The cancelled consumer then re-sets the awake flag with a
//     test-and-set. If the flag was still clear, no producer has issued
//     (or will issue) a wake for the current queue state, and setting
//     it suppresses any future producer's V — clean exit. If the flag
//     was already set, a producer won the race: it enqueued a message
//     and issued a V this wait did not consume. The consumer drains
//     that token (the P returns promptly: the V is issued, or the
//     semaphore was closed) and takes the message — success beats
//     cancellation when the two race, and the semaphore count stays
//     bounded either way: no wake destined for a live waiter is ever
//     swallowed, and no cancelled waiter leaves a token behind.
func consumerWaitCtx(ctx context.Context, q Port, a Actor, preWait func()) (Msg, error) {
	ca, _ := a.(CtxActor)
	for {
		if m, ok := q.TryDequeue(); ok {
			return m, nil
		}
		if portClosed(q) {
			return Msg{}, shutdownErr(q)
		}
		if err := ctxErr(ctx); err != nil {
			return Msg{}, err
		}
		if preWait != nil {
			preWait()
		}
		q.SetAwake(false)
		if m, ok := q.TryDequeue(); ok {
			if q.TASAwake() {
				a.P(q.Sem())
			}
			return m, nil
		}
		if ca == nil {
			// Can't park cancellably: restore the flag with the same
			// token accounting as the cancel path below.
			if q.TASAwake() {
				a.P(q.Sem())
				if m, ok := q.TryDequeue(); ok {
					return m, nil
				}
			}
			return Msg{}, ErrNotCancellable
		}
		if err := ca.PCtx(ctx, q.Sem()); err != nil {
			if q.TASAwake() {
				a.P(q.Sem())
				if m, ok := q.TryDequeue(); ok {
					return m, nil
				}
			}
			return Msg{}, deadOr(q, err)
		}
		q.SetAwake(true)
	}
}

// spinEnqueueCtx busy-waits an enqueue with cancellation (the BSS send
// leg of the ctx paths). It accepts any endpoint flavour.
func spinEnqueueCtx(ctx context.Context, a Actor, q interface {
	TryEnqueue(Msg) bool
}, m Msg) error {
	for {
		if portRefusing(q) {
			return shutdownErr(q)
		}
		if q.TryEnqueue(m) {
			return nil
		}
		if err := ctxErr(ctx); err != nil {
			return err
		}
		a.BusyWait()
	}
}

// spinPoll implements the BSLS limited-spin prefix (Figure 9):
//
//	spincnt = 0;
//	while( empty(Q) && spincnt++ < MAX_SPIN )
//	    poll_queue( Q );
//
// It records the Section 4.2 statistics (how often the loop fell through
// to the blocking path, and the iteration count) when m is non-nil. The
// poll needs only the non-destructive empty check, so it accepts any
// endpoint flavour (Port or PoolPort).
func spinPoll(q interface{ Empty() bool }, a Actor, maxSpin int, m *metrics.Proc) {
	if m != nil {
		m.SpinLoops.Add(1)
	}
	spincnt := 0
	for q.Empty() && spincnt < maxSpin {
		a.PollDelay()
		spincnt++
		if m != nil {
			m.SpinIters.Add(1)
		}
	}
	if spincnt >= maxSpin && m != nil {
		m.SpinFallThrus.Add(1)
	}
}

// Observability wrappers. Each forwards to the plain helper when the
// hook is disabled, so the legacy fast path pays one nil-check and no
// clock reads; with a hook attached, the phase durations land in the
// per-protocol histograms and retries/backoffs on the flight recorder.
// Timestamps are taken only once a wait actually begins (first failed
// enqueue), so the uncontended path stays clock-free even when enabled.

// spinPollObs is spinPoll with the spin-phase duration recorded.
func spinPollObs(q interface{ Empty() bool }, a Actor, maxSpin int, m *metrics.Proc, h obs.Hook) {
	if h.H == nil {
		spinPoll(q, a, maxSpin, m)
		return
	}
	t0 := time.Now()
	spinPoll(q, a, maxSpin, m)
	h.Spin(time.Since(t0))
}

// enqueueOrSleepObs is enqueueOrSleep with the queue-wait duration
// recorded when (and only when) the queue was full at least once.
func enqueueOrSleepObs(q interface{ TryEnqueue(Msg) bool }, a Actor, m Msg, h obs.Hook) bool {
	if !h.Enabled() {
		return enqueueOrSleep(q, a, m)
	}
	if portRefusing(q) {
		return false
	}
	if q.TryEnqueue(m) {
		return true // fast path: no clock read
	}
	t0 := time.Now()
	for {
		h.Note(obs.EvRetry, int64(m.Client))
		a.SleepSec(1)
		if portRefusing(q) {
			return false
		}
		if q.TryEnqueue(m) {
			h.QueueWait(time.Since(t0))
			return true
		}
	}
}

// enqueueOrSleepCtxObs is enqueueOrSleepCtx with the queue-wait
// duration recorded when the first attempt found the queue full.
func enqueueOrSleepCtxObs(ctx context.Context, q interface{ TryEnqueue(Msg) bool }, a Actor, m Msg, pm *metrics.Proc, budget *RetryBudget, h obs.Hook) error {
	if !h.Enabled() {
		return enqueueOrSleepCtx(ctx, q, a, m, pm, budget)
	}
	// First iteration inline (identical to the plain helper's) so the
	// uncontended path takes no timestamp.
	if portRefusing(q) {
		return shutdownErr(q)
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if q.TryEnqueue(m) {
		budget.credit()
		return nil
	}
	t0 := time.Now()
	h.Note(obs.EvRetry, int64(m.Client))
	err := enqueueOrSleepCtx(ctx, q, a, m, pm, budget)
	if err == nil {
		h.QueueWait(time.Since(t0))
	}
	return err
}

// busySpinUntil busy-waits (Figure 1's busy_wait) until ready() holds,
// polling q's shutdown state so a BSS spinner does not spin forever on
// a dead system; it reports false on shutdown. Endpoints without port
// state (the simulator's) spin exactly as before.
func busySpinUntil(a Actor, q any, ready func() bool) bool {
	for !ready() {
		if portClosed(q) {
			return false
		}
		a.BusyWait()
	}
	return true
}

// spinDequeueCtx busy-waits a dequeue with cancellation (the BSS
// receive leg of the ctx paths). It accepts any endpoint flavour (Port
// or PoolPort).
func spinDequeueCtx(ctx context.Context, a Actor, q interface {
	TryDequeue() (Msg, bool)
}) (Msg, error) {
	for {
		if m, ok := q.TryDequeue(); ok {
			return m, nil
		}
		if portClosed(q) {
			return Msg{}, shutdownErr(q)
		}
		if err := ctxErr(ctx); err != nil {
			return Msg{}, err
		}
		a.BusyWait()
	}
}
