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

// legHint is the scheduling hint a receive leg gives before it sleeps:
// Figure 7's busy_wait "let it run", or Section 6's handoff(target)
// where the endpoint enables it. A client's (client set) is a BusyWait
// before every sleep of BSLS, BSA and BSWY; a server endpoint's is one
// Yield after BSWY's first dequeue missed.
type legHint struct {
	client, count, handoff bool // count: in metrics.Proc.BusyWaits
	target                 int
}

// note counts the hint when the endpoint counts them.
func (k legHint) note(pm *metrics.Proc) {
	if k.count && pm != nil {
		pm.BusyWaits.Add(1)
	}
}

// receiveLeg is the per-protocol receive of every single-consumer
// endpoint: Server, DuplexHandler and the client's reply wait. It makes
// each yield and park itself, one call below it, so that a switch
// returns through at most three frames below the public verb (DESIGN.md
// "Switch depth"); the hint runs inline for the same reason.
//
// BSS busy-waits the dequeue (Figure 1). BSWY (Figure 7) at a server
// takes a request that is already queued; otherwise it lets the clients
// run (and possibly enqueue) once before entering the blocking path.
// The extra dequeue attempt is what makes the algorithm scale with
// multiple clients: with several outstanding entries it is more
// productive to keep processing than to give up the processor after
// every reply. BSLS and BSA first run the limited spin (Figure 9),
// its Section 4.2 statistics kept by spinStart and spinEnd:
//
//	spincnt = 0;
//	while( empty(Q) && spincnt++ < MAX_SPIN )
//	    poll_queue( Q );
//
// Then every protocol but BSS takes the consumer side of the blocking
// protocol (steps C.1–C.5 of Figure 4 with both race fixes):
//
//	while( !dequeue( Q, msg ) ) {
//	    <client hint — BSWY's busy_wait "try to handoff">
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
func receiveLeg(ctx context.Context, alg Algorithm, maxSpin int, tuner **Tuner, q Port, a Actor, pm *metrics.Proc, h obs.Hook, hint legHint) (Msg, error) {
	switch alg {
	case BSWY:
		if !hint.client {
			if m, ok := q.TryDequeue(); ok {
				return m, nil
			}
			hint.note(pm)
			if hint.handoff {
				a.Handoff(hint.target)
			} else {
				a.Yield()
			}
		}
	case BSLS, BSA:
		budget, t, t0 := spinStart(alg, maxSpin, tuner, pm, h)
		n := 0
		for q.Empty() && n < budget {
			a.PollDelay()
			n++
			if pm != nil {
				pm.SpinIters.Add(1)
			}
		}
		spinEnd(q, n, budget, t, t0, pm, h)
	case BSS, BSW:
	default:
		return Msg{}, ErrUnknownAlgorithm
	}
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
		if alg == BSS {
			a.BusyWait()
			continue
		}
		if hint.client && alg != BSW {
			hint.note(pm)
			if hint.handoff {
				a.Handoff(hint.target)
			} else {
				a.BusyWait()
			}
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

// spinStart opens a pre-block spin: its budget (BSLS's MAX_SPIN, or
// DefaultMaxSpin if that is not positive; BSA's controller budget, the
// controller built on first use), the controller to feed back (nil
// under BSLS) and the phase's start stamp. It counts the loop in pm.
func spinStart(alg Algorithm, maxSpin int, tuner **Tuner, pm *metrics.Proc, h obs.Hook) (budget int, t *Tuner, t0 int64) {
	budget = maxSpin
	if alg == BSA {
		if *tuner == nil {
			*tuner = NewTuner(TunerConfig{})
		}
		t = *tuner
		budget = t.Budget()
	} else if budget <= 0 {
		budget = DefaultMaxSpin
	}
	if h.H != nil {
		t0 = obs.Now()
	}
	if pm != nil {
		pm.SpinLoops.Add(1)
	}
	return budget, t, t0
}

// spinEnd closes a spin of n polls: it counts a fall-through and
// records the spin phase. BSLS counts the budget-exhausted
// approximation; a BSA controller gets the exact predicate (queue still
// empty), so a last-iteration arrival is not a sleep.
func spinEnd(q interface{ Empty() bool }, n, budget int, t *Tuner, t0 int64, pm *metrics.Proc, h obs.Hook) {
	fell := n >= budget
	if t != nil {
		fell = q.Empty()
		t.Observe(n, fell)
	}
	if fell && pm != nil {
		pm.SpinFallThrus.Add(1)
	}
	if h.H != nil {
		h.Spin(obs.Since(t0))
	}
}
