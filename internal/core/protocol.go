package core

import (
	"context"

	"ulipc/internal/metrics"
	"ulipc/internal/obs"
)

// This file contains the shared building blocks of the four protocols,
// transcribed from the paper's Figures 1, 5, 7 and 9 and threaded with
// a context (cancellation, deadlines) and the port state (shutdown).

// enqueueCtx implements the producer-side queue-full handling common to
// every send and reply. BSS busy-waits the full queue (Figure 1); the
// blocking protocols nap: "the process will sleep for at least one
// second... the queue full condition seldom occurs and the implication
// is that the consumer is saturated". A caller whose context can end
// naps a doubling, jittered backoff instead of the flat sleep(1) (see
// backoff.wait). The loop gives up when ctx ends, the port refuses new
// messages (BSS: or is found closed while full), or the optional retry
// budget runs dry (ErrOverload; the handshakes spend no budget). Each
// retry is counted in pm.Retries; each successful enqueue credits the
// budget. With a hook attached, the queue wait is recorded when (and
// only when) the first attempt found the queue full, so the
// uncontended path takes no clock read.
func enqueueCtx(ctx context.Context, alg Algorithm, q SendPort, a Actor, m Msg, pm *metrics.Proc, budget *RetryBudget, h obs.Hook) error {
	var bo backoff
	var t0 int64 // obs.Now stamp of the first full queue; 0 = none
	for {
		if q.Refusing() {
			return shutdownErr(q)
		}
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if q.TryEnqueue(m) {
			budget.credit()
			if t0 != 0 {
				h.QueueWait(obs.Since(t0))
			}
			return nil
		}
		if alg != BSS && t0 == 0 && h.Enabled() {
			t0 = obs.Now()
			h.Note(obs.EvRetry, int64(m.Client))
		}
		if isControl(m.Op) {
			budget = nil
		}
		if err := bo.wait(ctx, alg, q, a, budget, pm); err != nil {
			return err
		}
	}
}

// ctxErr is ctx.Err() for the hot-path polls: a non-blocking receive on
// ctx.Done() — an atomic load once the channel exists — where a
// cancelCtx's Err takes its mutex. A nil Done (context.Background(),
// under which every plain verb runs) never ends and skips the receive;
// once Done is closed the answer comes from ctx.Err().
func ctxErr(ctx context.Context) error {
	if done := ctx.Done(); done != nil {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	return nil
}

// wake implements steps P.2/P.3: the producer claims the wake-up and
// only then issues the (expensive) V. On a single-consumer port the
// claim is the Figure 4 race-2 fix — test-and-set ensures only the
// first producer to find the awake flag clear wakes the consumer:
//
//	if( !tas( &(Q->awake) ) ) V( sem );
//
// On a worker-pool port it claims a registered waiter (see pool.go).
func wake(q SendPort, a Actor) bool {
	if q.ClaimWake() {
		a.V(q.Sem())
		return true
	}
	return false
}

// consumerWaitCtx implements the consumer side of the blocking protocol
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
// and otherwise returns ErrShutdown (ErrPeerDead when the peer died).
//
// The delicate part is the wake-token accounting on the cancel path —
// the Figure 4 awake-flag race, revisited under cancellation:
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
	for {
		if m, ok := q.TryDequeue(); ok {
			return m, nil
		}
		if q.Closed() {
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
			// Reply/request arrived between the dequeues: re-set the
			// flag ourselves; if a producer already set it, it has also
			// issued a V we must consume without blocking.
			if q.TASAwake() {
				a.P(q.Sem())
			}
			return m, nil
		}
		if err := a.PCtx(ctx, q.Sem()); err != nil {
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

// receiveLeg is the per-protocol receive of a single-consumer server
// endpoint, shared by Server and DuplexHandler. BSWY (Figure 7) takes a
// request that is already queued; otherwise it runs letRun once to let
// clients run (and possibly enqueue) before entering the blocking path
// — the server's letClientsRun, a duplex handler's plain Yield. The
// extra dequeue attempt is what makes the algorithm scale with multiple
// clients: with several outstanding entries it is more productive to
// keep processing than to give up the processor after every reply.
func receiveLeg(ctx context.Context, alg Algorithm, maxSpin int, tuner **Tuner, q Port, a Actor, m *metrics.Proc, h obs.Hook, letRun func()) (Msg, error) {
	switch alg {
	case BSS:
		return spinDequeueCtx(ctx, a, q)
	case BSWY:
		if got, ok := q.TryDequeue(); ok {
			return got, nil
		}
		letRun()
	case BSLS, BSA:
		spinRcv(alg, maxSpin, tuner, q, a, m, h)
	case BSW:
	default:
		return Msg{}, ErrUnknownAlgorithm
	}
	return consumerWaitCtx(ctx, q, a, nil)
}

// spinDequeueCtx busy-waits a dequeue (the BSS receive leg, Figure 1).
func spinDequeueCtx(ctx context.Context, a Actor, q Port) (Msg, error) {
	for {
		if m, ok := q.TryDequeue(); ok {
			return m, nil
		}
		if q.Closed() {
			return Msg{}, shutdownErr(q)
		}
		if err := ctxErr(ctx); err != nil {
			return Msg{}, err
		}
		a.BusyWait()
	}
}

// spinRcv runs a consumer's pre-block spin prefix on q: BSLS's fixed
// MAX_SPIN (DefaultMaxSpin when maxSpin is not positive), or BSA's
// controller-tuned budget, building the controller on first use.
func spinRcv(alg Algorithm, maxSpin int, tuner **Tuner, q interface{ Empty() bool }, a Actor, m *metrics.Proc, h obs.Hook) {
	if alg == BSA {
		if *tuner == nil {
			*tuner = NewTuner(TunerConfig{})
		}
		spinPoll(q, a, (*tuner).Budget(), *tuner, m, h)
		return
	}
	if maxSpin <= 0 {
		maxSpin = DefaultMaxSpin
	}
	spinPoll(q, a, maxSpin, nil, m, h)
}

// spinPoll implements the BSLS limited-spin prefix (Figure 9):
//
//	spincnt = 0;
//	while( empty(Q) && spincnt++ < MAX_SPIN )
//	    poll_queue( Q );
//
// It records the Section 4.2 statistics (how often the loop fell through
// to the blocking path, and the iteration count) when m is non-nil, and
// the spin-phase duration when a hook is attached. With a BSA
// controller t, the outcome is fed back; its fall-through predicate is
// exact (queue still empty after the loop), unlike the budget-exhausted
// approximation BSLS counts — the controller must not count a
// last-iteration arrival as a sleep. The poll needs only the
// non-destructive empty check, so it accepts any endpoint flavour.
func spinPoll(q interface{ Empty() bool }, a Actor, budget int, t *Tuner, m *metrics.Proc, h obs.Hook) {
	var t0 int64
	if h.H != nil {
		t0 = obs.Now()
	}
	if m != nil {
		m.SpinLoops.Add(1)
	}
	spincnt := 0
	for q.Empty() && spincnt < budget {
		a.PollDelay()
		spincnt++
		if m != nil {
			m.SpinIters.Add(1)
		}
	}
	fell := spincnt >= budget
	if t != nil {
		fell = q.Empty()
		t.Observe(spincnt, fell)
	}
	if fell && m != nil {
		m.SpinFallThrus.Add(1)
	}
	if h.H != nil {
		h.Spin(obs.Since(t0))
	}
}
