package workload

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
	"ulipc/internal/queue"
)

// LiveConfig describes a live (real goroutine) benchmark run.
type LiveConfig struct {
	Alg       core.Algorithm
	Clients   int
	Msgs      int
	MaxSpin   int
	QueueCap  int
	QueueKind queue.Kind
	SpinIters int // >0: multiprocessor busy_wait flavour
	Throttle  int

	// SPSCReplies builds the reply queues as SPSC rings, the library
	// default, to measure the reply fast path. Unlike the library, the
	// default here (false) builds them as QueueKind queues
	// (livebind.Options.MPMCReplies), so experiment sweeps over queue
	// kinds (ablation A2) keep comparing the same implementation on both
	// legs of the round trip.
	SPSCReplies bool

	// SleepScale compresses the queue-full sleep(1) so tests and benches
	// don't stall for wall-clock seconds; defaults to 1ms per "second".
	SleepScale time.Duration

	// Watchdog bounds the whole run: if any participant is still
	// blocked past it — a deadlocked cell — every blocked call returns
	// context.DeadlineExceeded, the system is shut down, and the run
	// reports partial results and an error instead of hanging. Zero
	// means two minutes.
	Watchdog time.Duration

	// Shards, when > 0, runs the cell against a server group of that
	// many shards (livebind.Options.Shards): each client served by its
	// home shard over its own SPSC request lane and reply ring, through
	// the vectored SendBatchCtx/ServeBatchCtx paths. QueueKind,
	// SPSCReplies and Throttle do not apply in group mode (the group's rings are
	// structurally SPSC).
	Shards int

	// Batch is the vectored transfer size in group mode (messages per
	// SendBatchCtx / per ServeBatchCtx receive buffer); default 16.
	Batch int
}

// tuneFor zeroes the hand-tuned knobs when alg is BSA: the controller
// owns the spin budget and the backoff, and NewSystem rejects the
// combination with ErrBadTuning.
func tuneFor(alg core.Algorithm, maxSpin, throttle int) (int, int) {
	if alg == core.BSA {
		return 0, 0
	}
	return maxSpin, throttle
}

func (cfg *LiveConfig) defaults() error {
	if cfg.Clients < 1 {
		return fmt.Errorf("workload: need at least 1 client")
	}
	if cfg.Msgs < 1 {
		return fmt.Errorf("workload: need at least 1 message")
	}
	if cfg.SleepScale == 0 {
		cfg.SleepScale = time.Millisecond
	}
	if cfg.Watchdog <= 0 {
		cfg.Watchdog = 2 * time.Minute
	}
	return nil
}

// RunLive executes the client/server workload on the live runtime and
// returns wall-clock results. Every participant runs the
// context-threaded verbs under cfg.Watchdog (see LiveConfig.Watchdog).
func RunLive(cfg LiveConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	maxSpin, throttle := tuneFor(cfg.Alg, cfg.MaxSpin, cfg.Throttle)
	ms := metrics.NewSet()
	opts := livebind.Options{
		Alg:        cfg.Alg,
		MaxSpin:    maxSpin,
		Clients:    cfg.Clients,
		QueueCap:   cfg.QueueCap,
		SpinIters:  cfg.SpinIters,
		SleepScale: cfg.SleepScale,
		Metrics:    ms,
	}
	if cfg.Shards > 0 {
		sys, err := livebind.NewSystemGroup(cfg.Shards, opts)
		if err != nil {
			return Result{}, err
		}
		return runLiveGroup(cfg, sys, ms)
	}
	opts.QueueKind, opts.Throttle = cfg.QueueKind, throttle
	opts.MPMCReplies = !cfg.SPSCReplies
	sys, err := livebind.NewSystem(opts)
	if err != nil {
		return Result{}, err
	}

	c := newCell(cfg.Watchdog)
	defer c.cancel()
	srv := sys.Server()
	var served atomic.Int64
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		n, err := srv.ServeCtx(c.ctx, nil)
		if err != nil {
			c.noteErr("server: %v", err)
		}
		served.Store(n)
		c.noteEnd()
	}()
	if err := c.echoClients(cfg, sys.Client); err != nil {
		return Result{}, err
	}
	c.teardown(sys, &swg)

	res := c.result(fmt.Sprintf("live/%s/%dc", cfg.Alg, cfg.Clients), served.Load(), cfg.Msgs, ms)
	return res, c.check(served.Load(), int64(cfg.Clients*cfg.Msgs))
}

// echoClients runs the closed-loop clients of a scalar or pool cell and
// joins them: every client connects, waits until all have, sends
// cfg.Msgs validated echoes under the cell's context, and disconnects.
func (c *cell) echoClients(cfg LiveConfig, client func(int) (*core.Client, error)) error {
	cls := make([]*core.Client, cfg.Clients)
	for i := range cls {
		var err error
		if cls[i], err = client(i); err != nil {
			return err
		}
	}
	var barrier, wg sync.WaitGroup
	barrier.Add(cfg.Clients)
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			// Each client derives its own child context: cancellation
			// still fans out from the root, but the per-message Err()
			// polls hit a per-client mutex instead of contending on one
			// shared context across every client goroutine.
			cctx, ccancel := context.WithCancel(c.ctx)
			defer ccancel()
			if ans, err := cl.SendCtx(cctx, core.Msg{Op: core.OpConnect}); err != nil {
				c.noteErr("client%d: connect: %v", i, err)
				barrier.Done()
				return
			} else if ans.Op != core.OpConnect {
				c.noteErr("client%d: bad connect reply %+v", i, ans)
			}
			barrier.Done()
			barrier.Wait()
			c.noteStart()
			for j := 0; j < cfg.Msgs; j++ {
				ans, err := cl.SendCtx(cctx, core.Msg{Op: core.OpEcho, Seq: int32(j), Val: float64(j)})
				if err != nil {
					c.noteErr("client%d: send %d: %v", i, j, err)
					return
				}
				if ans.Seq != int32(j) || ans.Val != float64(j) {
					c.noteErr("client%d: reply mismatch at %d: %+v", i, j, ans)
				}
			}
			if _, err := cl.SendCtx(cctx, core.Msg{Op: core.OpDisconnect}); err != nil {
				c.noteErr("client%d: disconnect: %v", i, err)
			}
		}(i, cl)
	}
	c.join(&wg)
	return nil
}

// check is the verdict of a live measurement: any failure, or a served
// count short of total.
func (c *cell) check(served, total int64) error {
	var fail []string
	if served != total {
		fail = append(fail, fmt.Sprintf("served %d, want %d", served, total))
	}
	return c.verdict("workload: live validation failed", fail...)
}

// runLiveGroup is the server-group variant of RunLive: every shard runs
// a vectored ServeBatchCtx loop on its own goroutine, every client
// pushes its messages in SendBatchCtx bursts of cfg.Batch. The harness
// skips the connect/disconnect handshake — shard membership is static —
// so shards exit on the Shutdown marker once every client is done.
// Replies are validated in order, batch by batch (echoBatch).
func runLiveGroup(cfg LiveConfig, sys *livebind.System, ms *metrics.Set) (Result, error) {
	batch := cfg.Batch
	if batch < 1 {
		batch = 16
	}
	c := newCell(cfg.Watchdog)
	defer c.cancel()

	srvs, err := sys.ShardServers()
	if err != nil {
		return Result{}, err
	}
	cls := make([]*core.Client, cfg.Clients)
	for i := range cls {
		if cls[i], err = sys.Client(i); err != nil {
			return Result{}, err
		}
	}
	var served atomic.Int64
	var swg sync.WaitGroup
	for _, srv := range srvs {
		swg.Add(1)
		go func(sv *core.Server) {
			defer swg.Done()
			n, err := sv.ServeBatchCtx(c.ctx, nil, batch)
			if err != nil {
				c.noteErr("shard: %v", err)
			}
			served.Add(n)
		}(srv)
	}

	var barrier, wg sync.WaitGroup
	barrier.Add(cfg.Clients)
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			barrier.Done()
			barrier.Wait()
			c.noteStart()
			msgs := make([]core.Msg, 0, batch)
			for j := 0; j < cfg.Msgs; j += batch {
				if err := echoBatch(c.ctx, cl, msgs, j, min(batch, cfg.Msgs-j)); err != nil {
					c.noteErr("client%d: batch at %d: %v", i, j, err)
					return
				}
			}
		}(i, cl)
	}
	c.join(&wg)
	c.noteEnd()
	c.teardown(sys, &swg)

	res := c.result(fmt.Sprintf("live/%s/%dc/%ds", cfg.Alg, cfg.Clients, cfg.Shards), served.Load(), cfg.Msgs, ms)
	return res, c.check(served.Load(), int64(cfg.Clients*cfg.Msgs))
}

// echoBatch sends the echoes base..base+k-1 as one vectored batch,
// built in buf, and checks the replies in order: the client's home
// shard alone answers it, through one FIFO ring, so reply j must carry
// sequence base+j.
func echoBatch(ctx context.Context, cl *core.Client, buf []core.Msg, base, k int) error {
	buf = buf[:0]
	for q := base; q < base+k; q++ {
		buf = append(buf, core.Msg{Op: core.OpEcho, Seq: int32(q), Val: float64(q)})
	}
	out, err := cl.SendBatchCtx(ctx, buf)
	if err != nil {
		return err
	}
	if len(out) != k {
		return fmt.Errorf("%d replies, want %d", len(out), k)
	}
	for j, m := range out {
		if q := int32(base + j); m.Client != cl.ID || m.Seq != q || m.Val != float64(q) {
			return fmt.Errorf("reply %d is %+v, want seq %d", j, m, q)
		}
	}
	return nil
}
