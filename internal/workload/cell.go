package workload

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
	"ulipc/internal/queue"
)

// cell is the harness every live runner shares: the closed-loop
// measurement, the open-loop overload run and the chaos cells. It owns
// the root context the participants run under, which the watchdog
// ends; the run clock; the log of the first few failures; the deadlock
// flag; and the join, teardown and verdict steps. A runner supplies
// only its participants and its own fail conditions.
type cell struct {
	ctx      context.Context
	cancel   context.CancelFunc
	watchdog time.Duration
	epoch    time.Time // zero of the run clock (nowNs)

	mu       sync.Mutex
	started  bool
	start    time.Time // first measured send
	endAt    time.Time // last serve loop exit, or the runner's own end mark
	errs     []string
	deadlock bool
	aborted  int // participants that ended on peer death or shutdown
}

// newCell starts a cell whose root context ends after watchdog. The
// caller defers c.cancel.
func newCell(watchdog time.Duration) *cell {
	c := &cell{watchdog: watchdog, epoch: time.Now()}
	c.ctx, c.cancel = context.WithTimeout(context.Background(), watchdog)
	return c
}

// nowNs reads the run clock: nanoseconds since the cell started. The
// deadlines clients stamp and the server's shed hook read this clock.
func (c *cell) nowNs() int64 { return time.Since(c.epoch).Nanoseconds() }

func (c *cell) noteStart() {
	c.mu.Lock()
	if !c.started {
		c.start = time.Now()
		c.started = true
	}
	c.mu.Unlock()
}

func (c *cell) noteEnd() {
	c.mu.Lock()
	c.endAt = time.Now()
	c.mu.Unlock()
}

func (c *cell) noteErr(format string, args ...any) {
	c.mu.Lock()
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// graceful reports whether err is how a chaos participant legitimately
// ends: its peer died or the system shut down.
func graceful(err error) bool {
	return errors.Is(err, core.ErrPeerDead) || errors.Is(err, core.ErrShutdown)
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// end classifies a chaos client's failed protocol call: peer death and
// shutdown abort it gracefully, a watchdog expiry is the deadlock the
// cell exists to detect, anything else is a bug.
func (c *cell) end(who string, err error) {
	switch {
	case graceful(err):
		c.mu.Lock()
		c.aborted++
		c.mu.Unlock()
	case isCtxErr(err):
		c.mu.Lock()
		c.deadlock = true
		c.mu.Unlock()
	default:
		c.noteErr("%s: %v", who, err)
	}
}

// noteExit records a chaos serve loop's exit. A chaos server's exit is
// not a liveness criterion — a crashed client never disconnects, so a
// correct server waits for work until teardown releases it — so only
// an error other than peer death, shutdown or cancellation is a bug.
func (c *cell) noteExit(who string, err error) {
	if err != nil && !graceful(err) && !isCtxErr(err) {
		c.noteErr("%s: %v", who, err)
	}
}

// await waits up to d for wg. Participants still running after it are
// a hang even the context could not break: the cell is deadlocked.
func (c *cell) await(wg *sync.WaitGroup, d time.Duration, what string) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		c.mu.Lock()
		c.deadlock = true
		c.errs = append(c.errs, what)
		c.mu.Unlock()
	}
}

// join waits for the clients, with a grace period past the watchdog:
// its expiry unblocks every context-threaded call. A cell whose
// watchdog expired before its clients were done is deadlocked.
func (c *cell) join(clients *sync.WaitGroup) {
	c.await(clients, c.watchdog+5*time.Second, "clients still blocked past watchdog+grace")
	if c.ctx.Err() != nil {
		c.mu.Lock()
		c.deadlock = true
		c.mu.Unlock()
	}
}

// teardown shuts sys down and waits for its serve loops. The drain runs
// while they still serve, bounded by five seconds and by the root
// context, so a cell whose watchdog already fired does not wait for a
// drain nobody serves. A drain cut short is not itself a failure:
// whatever it left behind fails the runner's own checks. Only then is
// the root context cancelled; cancelling first would turn a clean
// serve-loop exit on the shutdown marker into a context error.
func (c *cell) teardown(sys *livebind.System, servers *sync.WaitGroup) {
	ctx, cancel := context.WithTimeout(c.ctx, 5*time.Second)
	err := sys.Shutdown(ctx)
	cancel()
	if err != nil {
		if !isCtxErr(err) {
			c.noteErr("shutdown: %v", err)
		}
		c.cancel()
	}
	c.await(servers, 5*time.Second, "serve loops still blocked after shutdown")
}

// failures is the cell's verdict: a deadlock first, then the runner's
// own fail conditions, then every noted error. Empty means it passed.
func (c *cell) failures(fail ...string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	if c.deadlock {
		out = append(out, "deadlocked: watchdog expired with participants blocked")
	}
	out = append(out, fail...)
	return append(out, c.errs...)
}

// verdict is failures as one error prefixed by what, nil on a pass.
func (c *cell) verdict(what string, fail ...string) error {
	if f := c.failures(fail...); len(f) > 0 {
		return fmt.Errorf("%s: %v", what, f)
	}
	return nil
}

// result measures from the first send to the end mark, at least 1 ns
// so the rates stay finite when no client got past its barrier.
func (c *cell) result(label string, served int64, msgs int, ms *metrics.Set) Result {
	c.mu.Lock()
	dur := time.Nanosecond
	if c.started && c.endAt.After(c.start) {
		dur = c.endAt.Sub(c.start)
	}
	c.mu.Unlock()
	return Result{
		Label:      label,
		Throughput: float64(served) / (float64(dur.Nanoseconds()) / 1e6),
		RTTMicros:  float64(dur.Nanoseconds()) / 1e3 / float64(msgs),
		Duration:   dur.Nanoseconds(),
		TotalMsgs:  served,
		Server:     ms.ByPrefix("server"),
		Clients:    ms.ByPrefix("client"),
		All:        ms.Total(),
	}
}

// shedPolicy is the deadline shed policy of the overload cells: a
// request's absolute deadline rides in Val on the run clock, and
// control ops (connect/disconnect, shutdown markers) are never shed.
func (c *cell) shedPolicy() *core.ShedPolicy {
	return &core.ShedPolicy{
		Deadline: func(m core.Msg) (int64, bool) {
			if m.Op != core.OpEcho && m.Op != core.OpWork {
				return 0, false
			}
			return int64(m.Val), true
		},
		Now: c.nowNs,
	}
}

// paySlots is the slab arena size (slots per class) of a payload cell:
// enough for every client to hold a request and a reply block at once,
// with headroom for in-flight ones. Zero size means no arena.
func paySlots(size, clients int) int {
	if size <= 0 {
		return 0
	}
	return max(4*(clients+1), 32)
}

// echoPayload is the zero-copy echo work of a payload cell's server:
// claim the request lease and re-attach it to the reply. A lost claim
// (the sender died and the sweeper took the block back) clears the ref.
func echoPayload(srv *core.Server) func(*core.Msg) {
	return func(m *core.Msg) {
		p, err := srv.Payload(*m)
		if err != nil {
			m.ClearBlock()
			return
		}
		m.AttachPayload(p)
	}
}

// auditPools drains what teardown left in sys's two-lock queues and
// returns the refs missing from (positive) or double-freed into
// (negative) their node pools, and the blocks missing from the slab
// arena. A message left queued may still carry a payload lease (a
// reply to a crashed client the sweeper had no reason to drain): it is
// claim-freed with its node, the sweeper's own race-safe rule. A
// deadlocked cell skips the arena audit: its stranded participants
// legitimately hold leases.
func (c *cell) auditPools(sys *livebind.System, clients int) (poolLeaked, blockLeaked int64) {
	arena := sys.Blocks()
	audit := func(ch *livebind.Channel) {
		tl, ok := ch.Queue().(*queue.TwoLock)
		if !ok {
			return
		}
		const auditOwner = ^uint32(0)
		queue.DrainFunc(tl, func(m core.Msg) {
			if !m.HasBlock() || arena == nil {
				return
			}
			if ref, _ := m.Block(); arena.ClaimGen(ref, m.BlockGen(), auditOwner) {
				_ = arena.Free(ref)
			}
		})
		// The pool's +1 is the queue's resident dummy.
		poolLeaked += int64(tl.Cap()) - tl.Pool().FreeCount()
	}
	audit(sys.ReceiveChannel())
	for i := 0; i < clients; i++ {
		audit(sys.ReplyChannel(i))
	}
	if arena != nil && !c.deadlocked() {
		blockLeaked = int64(arena.Capacity()) - arena.TotalFree()
	}
	return poolLeaked, blockLeaked
}

func (c *cell) deadlocked() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadlock
}
