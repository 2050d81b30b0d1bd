package workload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
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
//
// The collector never parks: its reply-queue awake flag is primed true
// once at start, so the server's reply-side TASAwake always sees an
// awake consumer and issues no V. No semaphore tokens accumulate over
// thousands of un-awaited replies, and the Figure 4 token conservation
// holds trivially for the collector (zero tokens in, zero out).

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
	// come at twice the rate during the first half of each BurstPeriod
	// and not at all during the second — same mean rate, clumped.
	Burst       bool
	BurstPeriod time.Duration // full on+off cycle; default 20ms

	// Deadline is stamped on every message (Val carries the absolute
	// deadline in nanoseconds since the run epoch): the server sheds
	// messages that expire before dequeue, the collector counts replies
	// arriving past it as Expiries rather than goodput. Default 5ms.
	Deadline time.Duration

	// Grace is the post-arrival drain window: how long the collectors
	// keep draining replies after the last arrival so the server can
	// finish (or shed) the backlog. Clients exit early once the request
	// queue is empty and no replies have arrived for a settle interval
	// longer than the producer backoff ceiling. Default 2*Deadline+50ms.
	Grace time.Duration

	// Seed makes the arrival streams deterministic; each client derives
	// its own xorshift stream from it. Default 1.
	Seed uint64

	// Overload doctrine knobs (zero disables each, as in
	// livebind.Admission): admission high-water mark, client retry
	// budget, group-mode quarantine circuit.
	HighWater  int
	RetryCap   float64
	Quarantine int

	// PaySize, when > 0, attaches a payload of that many bytes to every
	// request (OpWork zero-copy echo): sheds then exercise the
	// claim-free drop path and the post-run lease audit is non-trivial.
	// Not supported in group mode.
	PaySize int

	// Blocks overrides the arena slot count (PaySize cells only);
	// default 4*(Clients+1), minimum 32.
	Blocks int

	// CopyFallback degrades arena exhaustion to the heap overflow table
	// (PaySize cells only; see livebind.WithCopyFallback).
	CopyFallback bool

	MaxSpin    int
	QueueCap   int
	SpinIters  int
	SleepScale time.Duration

	// Shards, when > 0, runs the cell against a server group (the
	// quarantine circuit only exists there).
	Shards int
	Batch  int // vectored serve batch in group mode; default 16

	// Watchdog bounds the whole cell; default Duration+Grace+10s.
	Watchdog time.Duration
}

// OpenLoopResult is one open-loop cell's outcome. The load-balance
// identity is Offered = Admitted + Rejected + AllocFails; admitted
// messages end as Good, Expired, or Unanswered; on a run the watchdog
// did not trip, Unanswered = All.Sheds + Stranded.
type OpenLoopResult struct {
	Label string

	Offered    int64 // arrivals generated
	Admitted   int64 // successfully enqueued
	Rejected   int64 // fast-rejected (core.ErrOverload)
	AllocFails int64 // payload allocation denied (exhausted arena, no fallback)
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
	if cfg.Grace <= 0 {
		cfg.Grace = 2*cfg.Deadline + 50*time.Millisecond
	}
	if cfg.BurstPeriod <= 0 {
		cfg.BurstPeriod = 20 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.SleepScale == 0 {
		cfg.SleepScale = time.Millisecond
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 16
	}
	if cfg.Watchdog <= 0 {
		cfg.Watchdog = cfg.Duration + cfg.Grace + 10*time.Second
	}
	if cfg.PaySize > 0 && cfg.Shards > 0 {
		return fmt.Errorf("workload: open-loop payload cells not supported in group mode")
	}
	return nil
}

// RunOpenLoop executes one open-loop overload cell: paced arrivals for
// cfg.Duration, a drain grace window, teardown, lease audit.
func RunOpenLoop(cfg OpenLoopConfig) (OpenLoopResult, error) {
	if err := cfg.defaults(); err != nil {
		return OpenLoopResult{}, err
	}
	blockSlots := 0
	if cfg.PaySize > 0 {
		blockSlots = cfg.Blocks
		if blockSlots <= 0 {
			blockSlots = 4 * (cfg.Clients + 1)
			if blockSlots < 32 {
				blockSlots = 32
			}
		}
	}
	maxSpin, _ := tuneFor(cfg.Alg, cfg.MaxSpin, 0)
	ms := metrics.NewSet()
	opts := livebind.Options{
		Alg:        cfg.Alg,
		MaxSpin:    maxSpin,
		Clients:    cfg.Clients,
		QueueCap:   cfg.QueueCap,
		SpinIters:  cfg.SpinIters,
		SleepScale: cfg.SleepScale,
		BlockSlots: blockSlots,
		Metrics:    ms,
		Admission: livebind.Admission{
			HighWater:       cfg.HighWater,
			RetryCap:        cfg.RetryCap,
			QuarantineAfter: cfg.Quarantine,
		},
		CopyFallback: cfg.CopyFallback && blockSlots > 0,
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
	return runOpenLoop(cfg, sys, ms)
}

// olCounters is one client's tally; summed after the run.
type olCounters struct {
	offered, admitted, rejected, allocFails int64
	completed, good, expired                int64
	hist                                    latHist
}

func runOpenLoop(cfg OpenLoopConfig, sys *livebind.System, ms *metrics.Set) (OpenLoopResult, error) {
	rootCtx, cancel := context.WithTimeout(context.Background(), cfg.Watchdog)
	defer cancel()

	var (
		errsMu sync.Mutex
		errs   []string
	)
	noteErr := func(format string, args ...any) {
		errsMu.Lock()
		if len(errs) < 8 {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
		errsMu.Unlock()
	}

	// One shared run epoch: deadlines stamped by clients and checked by
	// the server's shed hook read the same clock.
	epoch := time.Now()
	nowNs := func() int64 { return time.Since(epoch).Nanoseconds() }
	dlNs := cfg.Deadline.Nanoseconds()
	shed := &core.ShedPolicy{
		// Only the stamped request ops carry deadlines; control traffic
		// (connect/disconnect, shutdown markers) is never shed.
		Deadline: func(m core.Msg) (int64, bool) {
			if m.Op != core.OpEcho && m.Op != core.OpWork {
				return 0, false
			}
			return int64(m.Val), true
		},
		Now: nowNs,
	}

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
			srv.Shed = shed
			swg.Add(1)
			go func(sv *core.Server) {
				defer swg.Done()
				if _, err := sv.ServeBatchCtx(rootCtx, nil, cfg.Batch); err != nil {
					noteErr("shard: %v", err)
				}
			}(srv)
		}
	} else {
		srv := sys.Server()
		srv.Shed = shed
		srv0 = srv
		var work func(*core.Msg)
		if cfg.PaySize > 0 {
			// Zero-copy echo: claim the request lease, re-attach it to
			// the reply. A lost claim (ErrPayloadLost) clears the ref.
			work = func(m *core.Msg) {
				p, err := srv.Payload(*m)
				if err != nil {
					m.ClearBlock()
					return
				}
				m.AttachPayload(p)
			}
		}
		swg.Add(1)
		go func() {
			defer swg.Done()
			if _, err := srv.ServeCtx(rootCtx, work); err != nil {
				noteErr("server: %v", err)
			}
		}()
	}

	durNs := cfg.Duration.Nanoseconds()
	graceNs := cfg.Grace.Nanoseconds()
	counts := make([]olCounters, cfg.Clients)
	cls := make([]*core.Client, cfg.Clients)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		cl, err := sys.Client(i)
		if err != nil {
			cancel()
			swg.Wait()
			return OpenLoopResult{}, err
		}
		cls[i] = cl
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			c := &counts[i]
			cctx, ccancel := context.WithCancel(rootCtx)
			defer ccancel()
			openLoopClient(cctx, cfg, cl, c, i, nowNs, dlNs, durNs, graceNs, noteErr)
		}(i, cl)
	}
	wg.Wait()

	// Teardown before reading counters: Shutdown closes the request
	// channels, the serve loops exit on ErrShutdown, and batched caches
	// spill. Only cancel the root context if shutdown failed to release
	// them (a premature cancel turns a clean shard exit into an error).
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
	if err := sys.Shutdown(shutCtx); err != nil {
		noteErr("shutdown: %v", err)
		cancel()
	}
	shutCancel()
	swg.Wait()
	tripped := rootCtx.Err() != nil

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
	if !tripped {
		if srv0 != nil {
			reclaim(srv0.Rcv, srv0.Payload)
		}
		for _, cl := range cls {
			reclaim(cl.Rcv, cl.Payload)
		}
	}

	// Lease-conservation audit: every payload block allocated during the
	// run must be back — released by the collector, claim-freed by a
	// shed, or freed on a rejected send. Skipped if the watchdog tripped
	// (stranded participants legitimately hold leases then).
	if pool := sys.Blocks(); pool != nil && !tripped {
		if leaked := int64(pool.Capacity()) - pool.TotalFree(); leaked != 0 {
			noteErr("payload blocks leaked: %d", leaked)
		}
		if fb := sys.FallbackLive(); fb != 0 {
			noteErr("fallback blocks leaked: %d", fb)
		}
	}

	res := OpenLoopResult{Duration: cfg.Duration}
	var hist latHist
	for i := range counts {
		c := &counts[i]
		res.Offered += c.offered
		res.Admitted += c.admitted
		res.Rejected += c.rejected
		res.AllocFails += c.allocFails
		res.Completed += c.completed
		res.Good += c.good
		res.Expired += c.expired
		hist.merge(&c.hist)
	}
	res.Unanswered = res.Admitted - res.Completed
	res.Stranded = stranded
	secs := cfg.Duration.Seconds()
	res.OfferedPerSec = float64(res.Offered) / secs
	res.GoodputPerSec = float64(res.Good) / secs
	res.P50Ns = hist.quantile(0.50)
	res.P95Ns = hist.quantile(0.95)
	res.P99Ns = hist.quantile(0.99)
	res.MaxNs = float64(hist.max)
	res.All = ms.Total()
	res.Clients = ms.ByPrefix("client")
	res.Label = fmt.Sprintf("openloop/%s/%dc", cfg.Alg, cfg.Clients)
	if cfg.Shards > 0 {
		res.Label += fmt.Sprintf("/%ds", cfg.Shards)
	}
	if cfg.Burst {
		res.Label += "/burst"
	}

	if tripped {
		noteErr("watchdog tripped after %v", cfg.Watchdog)
	}
	if len(errs) > 0 {
		return res, fmt.Errorf("workload: open loop failed: %v", errs)
	}
	return res, nil
}

// openLoopClient is one client's generate-and-collect loop.
func openLoopClient(ctx context.Context, cfg OpenLoopConfig, cl *core.Client, c *olCounters,
	id int, nowNs func() int64, dlNs, durNs, graceNs int64, noteErr func(string, ...any)) {
	// Prime the collector awake: the reply-side producer's TASAwake
	// always sees true, so no wake tokens accumulate while replies are
	// drained by polling (see the package comment above).
	cl.Rcv.SetAwake(true)

	drain := func() int {
		n := 0
		for {
			m, ok := cl.Rcv.TryDequeue()
			if !ok {
				return n
			}
			n++
			if m.Op != core.OpEcho && m.Op != core.OpWork {
				continue // shutdown marker or stray control op
			}
			if m.HasBlock() {
				if p, err := cl.Payload(m); err == nil {
					_ = p.Release()
				}
			}
			c.completed++
			now := nowNs()
			dl := int64(m.Val)
			if now > dl {
				c.expired++
				if cl.M != nil {
					cl.M.Expiries.Add(1)
				}
			} else {
				c.good++
				c.hist.add(now - (dl - dlNs))
			}
		}
	}

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
			stall.Reset(8*cfg.SleepScale + time.Millisecond)
			err := cl.SendAsyncCtx(sctx, m)
			stall.Stop()
			if !errors.Is(err, context.Canceled) || ctx.Err() != nil {
				return err
			}
			rearm()
			drain()
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
	burstNs := cfg.BurstPeriod.Nanoseconds()
	var seq int32
	next := nowNs() + expNs(&rng, perNs)
	for ctx.Err() == nil {
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
		if next >= durNs || nowNs() >= durNs {
			break
		}
		// Pace to the arrival clock, draining replies while ahead. On a
		// single-CPU host time.Sleep granularity is coarse, so only
		// sleep when comfortably ahead of schedule; otherwise yield.
		for ctx.Err() == nil {
			d := next - nowNs()
			if d <= 0 {
				break
			}
			drain()
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
		drain()
		c.offered++
		seq++
		m := core.Msg{Op: core.OpEcho, Seq: seq, Val: float64(nowNs() + dlNs)}
		var payRef uint32
		hasPay := false
		if cfg.PaySize > 0 {
			p, err := cl.AllocPayload(cfg.PaySize)
			if err != nil {
				// Exhausted arena without fallback: the arrival is lost
				// at the allocator, the open-loop analogue of a reject.
				c.allocFails++
				next += expNs(&rng, perNs)
				continue
			}
			m.Op = core.OpWork
			payRef, hasPay = p.Ref(), true
			m.AttachPayload(p)
		}
		switch err := send(m); {
		case err == nil:
			c.admitted++
		case errors.Is(err, core.ErrOverload):
			c.rejected++
			if hasPay {
				// Never enqueued: the lease is still ours — return it.
				_ = cl.Blocks.Free(payRef)
			}
		default:
			if hasPay {
				_ = cl.Blocks.Free(payRef)
			}
			if ctx.Err() == nil {
				noteErr("client%d: send: %v", id, err)
			}
			return
		}
		next += expNs(&rng, perNs)
	}

	// Grace drain: collect the backlog's replies until the request queue
	// is empty and nothing has arrived for a settle window longer than
	// the reply producer's backoff ceiling (8 scaled "seconds"), so a
	// server napping against this client's momentarily-full reply queue
	// still gets its retry in before the collector leaves.
	depth := func() int {
		if d, ok := cl.Srv.(core.DepthPort); ok {
			return d.Depth()
		}
		return 0
	}
	settle := 8*cfg.SleepScale.Nanoseconds() + 4_000_000
	hardEnd := durNs + graceNs
	quietSince := int64(-1)
	for ctx.Err() == nil && nowNs() < hardEnd {
		if drain() > 0 || depth() > 0 {
			quietSince = -1
		} else {
			now := nowNs()
			if quietSince < 0 {
				quietSince = now
			} else if now-quietSince > settle {
				break
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	drain()
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

// latHist is a log2 histogram with 4 sub-buckets per octave — ~12%
// relative error on the reported quantiles, fixed 2KB footprint, no
// allocation on the hot path.
type latHist struct {
	count   int64
	max     int64
	buckets [256]int64
}

func (h *latHist) add(ns int64) {
	if ns < 1 {
		ns = 1
	}
	if ns > h.max {
		h.max = ns
	}
	b := bits.Len64(uint64(ns)) // 1..63
	sub := 0
	if b >= 3 {
		sub = int((uint64(ns) >> uint(b-3)) & 3)
	}
	idx := (b-1)*4 + sub
	if idx > 255 {
		idx = 255
	}
	h.buckets[idx]++
	h.count++
}

func (h *latHist) merge(o *latHist) {
	h.count += o.count
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// quantile returns the q-quantile's bucket midpoint in nanoseconds.
func (h *latHist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := int64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var cum int64
	for i, cnt := range h.buckets {
		cum += cnt
		if cum > target {
			b := i/4 + 1
			sub := int64(i % 4)
			lo := int64(1) << uint(b-1)
			if b >= 3 {
				lo |= sub << uint(b-3)
				return float64(lo + int64(1)<<uint(b-3)/2)
			}
			return float64(lo)
		}
	}
	return float64(h.max)
}
