package workload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
	"ulipc/internal/obs"
)

// The open-loop load generator (DESIGN.md §14). The closed-loop harness
// in live.go cannot overload the system — each client waits for its
// reply before sending again, so the offered rate is capped by the
// completion rate. Real traffic is open-loop: arrivals come from a
// clock, not from completions, so offered load can exceed capacity and
// the interesting question becomes what the system does with the
// excess. This runner decouples the two rates: a Poisson (or bursty
// on/off) arrival process stamps each message with a deadline and
// injects it with the fire-and-forget async send, a bare polling
// collector drains replies, and the result separates offered load,
// admitted load, and goodput — replies that made their deadline.

// OpenLoopConfig describes one open-loop overload cell.
type OpenLoopConfig struct {
	Alg     core.Algorithm
	Clients int

	// Rate is the aggregate offered arrival rate (messages/second)
	// across all clients; each client generates Rate/Clients.
	Rate float64

	// Duration is the arrival-generation window.
	Duration time.Duration

	// Burst switches the Poisson process to on/off modulation: arrivals
	// come at twice the rate during the first half of each 20ms period
	// and not at all during the second — same mean rate, clumped.
	Burst bool

	// Deadline is stamped on every message (Val carries the absolute
	// deadline in nanoseconds on the run clock): the server sheds
	// messages that expire before dequeue, the collector counts replies
	// arriving past it as Expiries rather than goodput. Default 5ms.
	// The collectors keep draining for up to 2*Deadline+50ms after the
	// last arrival so the server can finish (or shed) the backlog.
	Deadline time.Duration

	// Seed makes the arrival streams deterministic; each client derives
	// its own xorshift stream from it. Default 1.
	Seed uint64

	// Overload doctrine knobs (zero disables each, as in
	// livebind.Admission): admission high-water mark and client retry
	// budget.
	HighWater int
	RetryCap  float64

	// PaySize, when > 0, attaches a payload of that many bytes to every
	// request (OpWork zero-copy echo): sheds then exercise the
	// claim-free drop path and the post-run lease audit is non-trivial.
	// Not supported in group mode.
	PaySize int

	// Shards, when > 0, runs the cell against a server group, one
	// vectored serve loop of 16-message batches per shard; admission
	// then reads each client's home-shard lane depth.
	Shards int

	// Watchdog bounds the whole cell; default Duration+grace+10s.
	Watchdog time.Duration
}

// The fixed shape of an open-loop cell.
const (
	burstPeriod = 20 * time.Millisecond // full on+off cycle of a Burst cell
	olBatch     = 16                    // group-mode serve batch

	// settleNs is how long a collector must hear nothing, with the
	// request queue empty, before it stops draining: longer than the
	// reply producer's backoff ceiling (8 sleep(1)s at the 1ms sleep
	// scale), so a server napping against a momentarily full reply queue
	// still gets its retry in.
	settleNs = 8*int64(time.Millisecond) + 4_000_000
)

// OpenLoopResult is one open-loop cell's outcome. The load-balance
// identity is Offered = Admitted + Rejected + AllocFails; admitted
// messages end as Good, Expired, or Unanswered; on a run the watchdog
// did not trip, Unanswered = All.Sheds + Stranded.
type OpenLoopResult struct {
	Label string

	Offered    int64 // arrivals generated
	Admitted   int64 // successfully enqueued
	Rejected   int64 // fast-rejected (core.ErrOverload)
	AllocFails int64 // payload allocation denied (exhausted arena)
	Completed  int64 // replies collected
	Good       int64 // replies collected within their deadline
	Expired    int64 // replies collected past their deadline
	Unanswered int64 // Admitted - Completed: shed or stranded
	Stranded   int64 // requests and replies still queued at teardown, reclaimed uncollected

	OfferedPerSec float64
	GoodputPerSec float64

	// Goodput latency distribution (send to collection, ns); expired
	// replies are excluded — they are failures, not slow successes.
	P50Ns, P95Ns, P99Ns, MaxNs float64

	Duration time.Duration    // the arrival window
	All      metrics.Snapshot // aggregate counters (Sheds, Overloads, ...)
	Clients  metrics.Snapshot // client-side aggregate
}

func (cfg *OpenLoopConfig) defaults() error {
	if cfg.Clients < 1 {
		return fmt.Errorf("workload: open loop needs at least 1 client")
	}
	if cfg.Rate <= 0 {
		return fmt.Errorf("workload: open loop needs a positive arrival rate")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 300 * time.Millisecond
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 5 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Watchdog <= 0 {
		cfg.Watchdog = cfg.Duration + cfg.grace() + 10*time.Second
	}
	if cfg.PaySize > 0 && cfg.Shards > 0 {
		return fmt.Errorf("workload: open-loop payload cells not supported in group mode")
	}
	return nil
}

// grace is the post-arrival drain window.
func (cfg *OpenLoopConfig) grace() time.Duration { return 2*cfg.Deadline + 50*time.Millisecond }

// olCounters is one client's tally; summed after the run.
type olCounters struct {
	offered, admitted, rejected, allocFails int64
	completed, good, expired                int64
}

// RunOpenLoop executes one open-loop overload cell: paced arrivals for
// cfg.Duration, a drain grace window, teardown, lease audit.
func RunOpenLoop(cfg OpenLoopConfig) (OpenLoopResult, error) {
	if err := cfg.defaults(); err != nil {
		return OpenLoopResult{}, err
	}
	ms := metrics.NewSet()
	opts := livebind.Options{
		Alg:        cfg.Alg,
		Clients:    cfg.Clients,
		SleepScale: time.Millisecond,
		BlockSlots: paySlots(cfg.PaySize, cfg.Clients),
		Metrics:    ms,
		Admission: livebind.Admission{
			HighWater: cfg.HighWater,
			RetryCap:  cfg.RetryCap,
		},
	}
	var (
		sys *livebind.System
		err error
	)
	if cfg.Shards > 0 {
		sys, err = livebind.NewSystemGroup(cfg.Shards, opts)
	} else {
		sys, err = livebind.NewSystem(opts)
	}
	if err != nil {
		return OpenLoopResult{}, err
	}
	cls := make([]*core.Client, cfg.Clients)
	for i := range cls {
		if cls[i], err = sys.Client(i); err != nil {
			return OpenLoopResult{}, err
		}
	}
	c := newCell(cfg.Watchdog)
	defer c.cancel()

	// Servers: scalar ServeCtx or one vectored ServeBatchCtx per shard;
	// both run until Shutdown (no connect handshake — an overloaded
	// client may never get a disconnect through, so teardown cannot
	// depend on the connection protocol).
	var swg sync.WaitGroup
	var srv0 *core.Server // scalar-mode server, kept for the teardown reclaim
	if cfg.Shards > 0 {
		srvs, err := sys.ShardServers()
		if err != nil {
			return OpenLoopResult{}, err
		}
		for _, srv := range srvs {
			srv.Shed = c.shedPolicy()
			swg.Add(1)
			go func(sv *core.Server) {
				defer swg.Done()
				if _, err := sv.ServeBatchCtx(c.ctx, nil, olBatch); err != nil {
					c.noteErr("shard: %v", err)
				}
			}(srv)
		}
	} else {
		srv0 = sys.Server()
		srv0.Shed = c.shedPolicy()
		var work func(*core.Msg)
		if cfg.PaySize > 0 {
			work = echoPayload(srv0)
		}
		swg.Add(1)
		go func() {
			defer swg.Done()
			if _, err := srv0.ServeCtx(c.ctx, work); err != nil {
				c.noteErr("server: %v", err)
			}
		}()
	}

	counts := make([]olCounters, cfg.Clients)
	var hist obs.Histogram
	var wg sync.WaitGroup
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			cctx, ccancel := context.WithCancel(c.ctx)
			defer ccancel()
			openLoopClient(cctx, c, cfg, cl, &counts[i], &hist, i)
		}(i, cl)
	}
	c.join(&wg)
	c.teardown(sys, &swg)
	tripped := c.ctx.Err() != nil

	// Teardown reclaim: the run ends on a wall-clock edge, not a drained
	// system, so arrivals the server never dequeued are still in the
	// request queue and replies sent after the collector's last drain sit
	// in the reply queues — some holding live leases. Count them as
	// Stranded and claim-and-free their leases (the shed path's
	// discipline, applied at teardown) so the audit below measures
	// protocol conservation, not the teardown cut line.
	var stranded int64
	reclaim := func(q core.Port, payload func(core.Msg) (*core.Payload, error)) {
		for {
			m, ok := q.TryDequeue()
			if !ok {
				return
			}
			if m.Op == core.OpEcho || m.Op == core.OpWork {
				stranded++
			}
			if m.HasBlock() {
				if p, err := payload(m); err == nil {
					_ = p.Release()
				}
			}
		}
	}
	// Lease-conservation audit: every payload block allocated during the
	// run must be back — released by the collector, claim-freed by a
	// shed, or freed on a rejected send. Skipped if the watchdog tripped
	// (stranded participants legitimately hold leases then).
	var fail []string
	if !tripped {
		if srv0 != nil {
			reclaim(srv0.Rcv, srv0.Payload)
		}
		for _, cl := range cls {
			reclaim(cl.Rcv, cl.Payload)
		}
		if pool := sys.Blocks(); pool != nil {
			if leaked := int64(pool.Capacity()) - pool.TotalFree(); leaked != 0 {
				fail = append(fail, fmt.Sprintf("payload blocks leaked: %d", leaked))
			}
		}
	}

	res := OpenLoopResult{Duration: cfg.Duration}
	for _, n := range counts {
		res.Offered += n.offered
		res.Admitted += n.admitted
		res.Rejected += n.rejected
		res.AllocFails += n.allocFails
		res.Completed += n.completed
		res.Good += n.good
		res.Expired += n.expired
	}
	res.Unanswered = res.Admitted - res.Completed
	res.Stranded = stranded
	secs := cfg.Duration.Seconds()
	res.OfferedPerSec = float64(res.Offered) / secs
	res.GoodputPerSec = float64(res.Good) / secs
	lat := hist.Snapshot()
	res.P50Ns = lat.Quantile(0.50)
	res.P95Ns = lat.Quantile(0.95)
	res.P99Ns = lat.Quantile(0.99)
	res.MaxNs = float64(lat.Max)
	res.All = ms.Total()
	res.Clients = ms.ByPrefix("client")
	res.Label = fmt.Sprintf("openloop/%s/%dc", cfg.Alg, cfg.Clients)
	if cfg.Shards > 0 {
		res.Label += fmt.Sprintf("/%ds", cfg.Shards)
	}
	if cfg.Burst {
		res.Label += "/burst"
	}
	return res, c.verdict("workload: open loop failed", fail...)
}

// collector drains one client's replies by polling. It never parks:
// the reply-queue awake flag is primed true once at start, so the
// server's reply-side TASAwake always sees an awake consumer and issues
// no V. No semaphore tokens accumulate over thousands of un-awaited
// replies, and the Figure 4 token conservation holds trivially for the
// collector (zero tokens in, zero out).
type collector struct {
	cl    *core.Client
	reply func(core.Msg) // per collected echo, its lease already released
}

func newCollector(cl *core.Client, reply func(core.Msg)) *collector {
	cl.Rcv.SetAwake(true)
	return &collector{cl: cl, reply: reply}
}

// drain collects every queued reply and returns how many messages it
// dequeued.
func (k *collector) drain() int {
	n := 0
	for {
		m, ok := k.cl.Rcv.TryDequeue()
		if !ok {
			return n
		}
		n++
		if m.Op != core.OpEcho && m.Op != core.OpWork {
			continue // shutdown marker or stray control op
		}
		if m.HasBlock() {
			if p, err := k.cl.Payload(m); err == nil {
				_ = p.Release()
			}
		}
		k.reply(m)
	}
}

// settle collects the backlog's replies after the last send: until
// the request queue is empty and nothing has arrived for settleNs, or
// until ctx ends or the run clock passes end.
func (k *collector) settle(ctx context.Context, c *cell, end int64) {
	quietSince := int64(-1)
	for ctx.Err() == nil && c.nowNs() < end {
		if k.drain() > 0 || k.cl.Srv.Depth() > 0 {
			quietSince = -1
		} else {
			now := c.nowNs()
			if quietSince < 0 {
				quietSince = now
			} else if now-quietSince > settleNs {
				break
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	k.drain()
}

// errNoBlock reports an arrival lost at the allocator: the arena had
// no block to lend its payload.
var errNoBlock = errors.New("workload: payload arena exhausted")

// offer sends m with send, first attaching a size-byte payload when
// size > 0. A lease the send did not enqueue is still ours: it is
// freed again.
func (k *collector) offer(m core.Msg, size int, send func(core.Msg) error) error {
	if size <= 0 {
		return send(m)
	}
	p, err := k.cl.AllocPayload(size)
	if err != nil {
		return errNoBlock
	}
	ref := p.Ref()
	m.Op = core.OpWork
	m.AttachPayload(p)
	if err := send(m); err != nil {
		_ = k.cl.Blocks.Free(ref)
		return err
	}
	return nil
}

// openLoopClient is one client's generate-and-collect loop.
func openLoopClient(ctx context.Context, c *cell, cfg OpenLoopConfig, cl *core.Client, n *olCounters, hist *obs.Histogram, id int) {
	dlNs := cfg.Deadline.Nanoseconds()
	k := newCollector(cl, func(m core.Msg) {
		n.completed++
		now, dl := c.nowNs(), int64(m.Val)
		if now > dl {
			n.expired++
			if cl.M != nil {
				cl.M.Expiries.Add(1)
			}
		} else {
			n.good++
			hist.Record(time.Duration(now - (dl - dlNs)))
		}
	})

	// send is SendAsyncCtx with each attempt bounded by the producer
	// backoff ceiling (8 scaled "seconds") plus a margin. An attempt cut
	// short enqueued nothing: drain, so a server napping against our full
	// reply queue can get back to the request queue, and try the same
	// message again. The bound is a reusable timer cancelling a
	// per-client context, both replaced only after the timer fires, so an
	// unblocked send allocates nothing (a context per send slows this
	// loop enough to starve the server on one processor).
	var (
		sctx    context.Context
		cancelS context.CancelFunc
		stall   *time.Timer
	)
	rearm := func() {
		if cancelS != nil {
			cancelS()
		}
		sctx, cancelS = context.WithCancel(ctx)
		stall = time.AfterFunc(time.Hour, cancelS)
		stall.Stop()
	}
	rearm()
	defer func() {
		stall.Stop()
		cancelS()
	}()
	send := func(m core.Msg) error {
		for {
			stall.Reset(9 * time.Millisecond)
			err := cl.SendAsyncCtx(sctx, m)
			stall.Stop()
			if !errors.Is(err, context.Canceled) || ctx.Err() != nil {
				return err
			}
			rearm()
			k.drain()
		}
	}

	rng := cfg.Seed + uint64(id+1)*0x9E3779B97F4A7C15
	if rng == 0 {
		rng = 1
	}
	perNs := cfg.Rate / float64(cfg.Clients) / 1e9 // arrivals per nanosecond
	if cfg.Burst {
		perNs *= 2 // on-half rate; the off-half contributes nothing
	}
	burstNs := burstPeriod.Nanoseconds()
	durNs := cfg.Duration.Nanoseconds()
	var seq int32
	next := c.nowNs() + expNs(&rng, perNs)
	for ; ctx.Err() == nil; next += expNs(&rng, perNs) {
		if cfg.Burst {
			// Arrivals scheduled into the off-half clump at the start of
			// the next period — the on/off square wave.
			if ph := next % burstNs; ph >= burstNs/2 {
				next += burstNs - ph
			}
		}
		// The window ends on the arrival clock, or on the wall clock for
		// a generator that has fallen behind its schedule: a slow
		// generator (one processor, the race detector) must not stretch
		// the run past Duration towards the watchdog.
		if next >= durNs || c.nowNs() >= durNs {
			break
		}
		// Pace to the arrival clock, draining replies while ahead. On a
		// single-CPU host time.Sleep granularity is coarse, so only
		// sleep when comfortably ahead of schedule; otherwise yield.
		for ctx.Err() == nil {
			d := next - c.nowNs()
			if d <= 0 {
				break
			}
			k.drain()
			if d > 500_000 {
				time.Sleep(time.Duration(d - 200_000))
			} else {
				runtime.Gosched()
			}
		}
		// Drain before every send, even when behind schedule. A collector
		// that only drains while ahead can deadlock a generator that has
		// fallen permanently behind: its reply queue fills, the server
		// naps in Reply against it and stops dequeuing, the request queue
		// fills, and the next blocking send then waits on queue space only
		// the napping server could free. Draining here caps the backlog at
		// what the server can reply while one send blocks — but that is
		// every request of ours still queued, which can exceed the reply
		// queue, so send also bounds how long one attempt may block.
		k.drain()
		n.offered++
		seq++
		m := core.Msg{Op: core.OpEcho, Seq: seq, Val: float64(c.nowNs() + dlNs)}
		switch err := k.offer(m, cfg.PaySize, send); {
		case err == nil:
			n.admitted++
		case errors.Is(err, core.ErrOverload):
			n.rejected++
		case err == errNoBlock:
			// Exhausted arena: the open-loop analogue of a reject.
			n.allocFails++
		default:
			if ctx.Err() == nil {
				c.noteErr("client%d: send: %v", id, err)
			}
			return
		}
	}
	k.settle(ctx, c, durNs+cfg.grace().Nanoseconds())
}

// expNs draws an exponential interarrival gap (ns) for the given
// per-nanosecond rate from a client-private xorshift64 stream.
func expNs(s *uint64, perNs float64) int64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	u := float64(x>>11) / (1 << 53) // uniform [0,1)
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	d := -math.Log(1-u) / perNs
	if d < 1 {
		d = 1
	}
	if d > 1e9 {
		d = 1e9 // one-second ceiling keeps a tiny rate from stalling the loop
	}
	return int64(d)
}
