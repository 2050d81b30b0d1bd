package core

import (
	"context"
	"sync/atomic"
	"time"

	"ulipc/internal/metrics"
)

// The overload doctrine (DESIGN.md §14). Closed-loop clients cannot
// overload the system — each waits for its reply before sending again —
// but open-loop traffic (arrivals decoupled from completions) can push
// the offered rate past capacity, and a queue that never drains defeats
// every sleep/wake-up protocol in this package: the paper optimises the
// cost of waking a consumer, not the fate of work that will miss its
// deadline anyway. This file holds the client half of the answer:
//
//   - bounded admission: a send observing a request-queue depth at or
//     above a high-water mark fails fast with ErrOverload instead of
//     joining a queue it would only lengthen;
//   - retry budgets: a token bucket bounds full-queue retries, so a
//     client that makes no progress stops napping against a saturated
//     server and surfaces ErrOverload to its caller;
//   - jittered backoff: the shared full-queue nap helper desynchronises
//     clients that hit a full queue together.
//
// A connect or disconnect sent on its own (isControl) is exempt from
// both limits; a batch is admitted as data. Refusing a disconnect
// would leave the server counting a client that is gone, and its Serve
// loop would never return.
//
// The server half — deadline-aware shedding at dequeue — is ShedPolicy
// below plus the shed hook in server.go/batch.go.

// RetryBudget is a token bucket bounding full-queue retries on one
// handle. Each backoff nap spends one token; each successful enqueue
// earns Refill back (capped at Cap), so a client that makes progress
// retries indefinitely while one that does not drains its bucket and
// fails fast with ErrOverload instead of napping forever. The zero
// value (or a nil pointer) means unbounded retry — the pre-overload
// behaviour. A budget belongs to one handle, and handles are
// single-goroutine, so plain fields suffice.
type RetryBudget struct {
	Cap    float64 // bucket size (burst of retries tolerated); <= 0 disables
	Refill float64 // tokens credited per successful enqueue

	tokens float64
	primed bool
}

// take spends one retry token; false means the bucket is dry.
func (b *RetryBudget) take() bool {
	if b == nil || b.Cap <= 0 {
		return true
	}
	if !b.primed {
		b.tokens = b.Cap
		b.primed = true
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// credit rewards progress: a successful enqueue earns Refill tokens.
func (b *RetryBudget) credit() {
	if b == nil || b.Cap <= 0 || b.Refill <= 0 {
		return
	}
	if !b.primed {
		return // bucket still full
	}
	b.tokens += b.Refill
	if b.tokens > b.Cap {
		b.tokens = b.Cap
	}
}

// backoffSeed dealiases the jitter streams: each lazily-seeded backoff
// draws a distinct odd xorshift seed, so handles created together do
// not nap in identical patterns.
var backoffSeed atomic.Uint32

// backoff is the shared full-queue retry state of the producer paths
// (scalar enqueueCtx and the batch send loop): an
// exponential nap ceiling (1, 2, 4, 8 "seconds", scaled by the actor's
// sleep scale) with uniform jitter below it. The two loops this helper
// replaced doubled deterministically, which made clients that hit a
// full queue in the same instant retry in phase forever — a retry
// storm that re-fills the queue on every beat. The zero value is ready
// to use; seeding happens on the first nap, so paths that never hit a
// full queue never touch the seed counter.
type backoff struct {
	nap uint32 // current ceiling (1..8); 0 = not yet seeded
	rng uint32 // xorshift32 jitter state; 0 = not yet seeded
}

// next draws the jittered nap — uniform in [1, ceiling] — and doubles
// the ceiling toward 8.
func (b *backoff) next() int {
	if b.rng == 0 {
		b.rng = backoffSeed.Add(0x9E3779B9) | 1
		if b.nap == 0 {
			b.nap = 1
		}
	}
	x := b.rng
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	b.rng = x
	nap := int(x%b.nap) + 1
	if b.nap < 8 {
		b.nap <<= 1
	}
	return nap
}

// reset restores the ceiling after progress (the batch path resets
// between successful bursts; the jitter stream keeps running).
func (b *backoff) reset() { b.nap = 1 }

// wait is one full-queue round of a producer, shared by enqueueCtx and
// SendBatchCtx. BSS busy-waits (Figure 1) and gives up only once the
// port is closed. The blocking protocols count the retry, spend a
// budget token (ErrOverload when the bucket is dry) and nap. Under a
// context that can end the nap is the jittered backoff; under one that
// never ends — every plain verb, and the simulator, which has no
// caller to cancel — it is the paper's flat sleep(1) (Figure 5), so
// those callers nap exactly as the protocol is written.
func (b *backoff) wait(ctx context.Context, alg Algorithm, q SendPort, a Actor, budget *RetryBudget, pm *metrics.Proc) error {
	if alg == BSS {
		if q.Closed() {
			return shutdownErr(q)
		}
		a.BusyWait()
		return nil
	}
	if pm != nil {
		pm.Retries.Add(1)
	}
	if !budget.take() {
		if pm != nil {
			pm.Overloads.Add(1)
		}
		return ErrOverload
	}
	if ctx.Done() == nil {
		return a.SleepCtx(ctx, 1)
	}
	return a.SleepCtx(ctx, b.next())
}

// admit is the bounded-admission fast check of the send paths:
// with a HighWater mark configured, a send observing a request-port
// depth at or above the mark is rejected with
// ErrOverload before anything is enqueued. Disabled (HighWater <= 0,
// the default) it costs one predictable branch — the bar the
// interleaved closed-loop A/B cells hold it to. The handshakes (op
// OpConnect/OpDisconnect) are always admitted.
func (c *Client) admit(op int32) error {
	if c.HighWater <= 0 || isControl(op) {
		return nil
	}
	if c.Srv.Depth() >= c.HighWater {
		if c.M != nil {
			c.M.Overloads.Add(1)
		}
		return ErrOverload
	}
	return nil
}

// ShedPolicy configures deadline-aware shedding at the server's
// dequeue: a message whose deadline has already passed is dropped
// before any service time is spent on it — its reply would be late
// anyway, so serving it steals capacity from messages that can still
// meet theirs. Deadline extracts a message's absolute deadline;
// ok=false exempts it (control traffic, unstamped messages). Now is
// the matching clock, defaulting to wall time in nanoseconds. Both run
// on the server's own goroutine.
//
// Shedding pairs with deadline-aware clients: the shed message's reply
// never comes, so its sender must bound its own wait (an open-loop
// collector, or a SendCtx deadline at or before the message's).
type ShedPolicy struct {
	Deadline func(Msg) (deadline int64, ok bool)
	Now      func() int64
}

func (p *ShedPolicy) now() int64 {
	if p.Now != nil {
		return p.Now()
	}
	return time.Now().UnixNano()
}

// shed drops m if its deadline has passed: any payload lease is
// claim-freed through the standard drop discipline, the Sheds counter
// ticks, and the sender's consumer is woken through the TAS-guarded
// wake — at most one compensating V per shed batch per client, the
// same accounting as the vectored reply path (a producer issues at
// most one V per TAS-cleared awake flag; DESIGN.md §10): a client
// parked on a reply that now never comes re-checks its queue instead
// of sleeping until its deadline, and a client that was not parked
// absorbs nothing.
func (s *Server) shed(m Msg) bool {
	p := s.Shed
	if p == nil || p.Deadline == nil {
		return false
	}
	dl, ok := p.Deadline(m)
	if !ok || p.now() < dl {
		return false
	}
	DropPayload(s.Blocks, s.Owner, m)
	if s.M != nil {
		s.M.Sheds.Add(1)
	}
	if s.ValidClient(m.Client) {
		wake(s.Replies[m.Client], s.A)
	}
	return true
}
