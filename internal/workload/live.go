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

	// ReplyKind selects the reply-queue implementation. Unlike the
	// library default (SPSC), a nil ReplyKind here follows QueueKind, so
	// experiment sweeps over queue kinds (ablation A2) keep comparing
	// the same implementation on both legs of the round trip. Point it
	// at queue.KindSPSC to measure the reply fast path.
	ReplyKind *queue.Kind

	// AllocBatch enables producer-side allocation batching (see
	// livebind.Options.AllocBatch).
	AllocBatch int

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
	// many shards (livebind.Options.Shards): per-client SPSC request
	// lanes, client-side shard selection, bounded work stealing, and
	// the vectored SendBatch/ServeBatch paths. QueueKind, ReplyKind and
	// Throttle do not apply in group mode (the lane mesh is
	// structurally SPSC).
	Shards int

	// Batch is the vectored transfer size in group mode (messages per
	// SendBatch / per ServeBatch receive buffer); default 16.
	Batch int

	// NoSteal disables inter-shard work stealing in group mode.
	NoSteal bool

	// Picker selects the client-side shard policy in group mode; nil
	// defaults to hash pinning.
	Picker livebind.ShardPicker
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

// RunLive executes the client/server workload on the live runtime and
// returns wall-clock results. Every participant runs the
// context-threaded verbs under cfg.Watchdog (see LiveConfig.Watchdog).
func RunLive(cfg LiveConfig) (Result, error) {
	if cfg.Clients < 1 {
		return Result{}, fmt.Errorf("workload: need at least 1 client")
	}
	if cfg.Msgs < 1 {
		return Result{}, fmt.Errorf("workload: need at least 1 message")
	}
	if cfg.SleepScale == 0 {
		cfg.SleepScale = time.Millisecond
	}
	if cfg.Watchdog <= 0 {
		cfg.Watchdog = 2 * time.Minute
	}
	replyKind := cfg.QueueKind
	if cfg.ReplyKind != nil {
		replyKind = *cfg.ReplyKind
	}
	maxSpin, throttle := tuneFor(cfg.Alg, cfg.MaxSpin, cfg.Throttle)
	ms := metrics.NewSet()
	if cfg.Shards > 0 {
		sys, err := livebind.NewSystemGroup(cfg.Shards, livebind.Options{
			Alg:        cfg.Alg,
			MaxSpin:    maxSpin,
			Clients:    cfg.Clients,
			QueueCap:   cfg.QueueCap,
			AllocBatch: cfg.AllocBatch,
			SpinIters:  cfg.SpinIters,
			SleepScale: cfg.SleepScale,
			NoSteal:    cfg.NoSteal,
			Picker:     cfg.Picker,
			Metrics:    ms,
		})
		if err != nil {
			return Result{}, err
		}
		return runLiveGroup(cfg, sys, ms)
	}
	sys, err := livebind.NewSystem(livebind.Options{
		Alg:        cfg.Alg,
		MaxSpin:    maxSpin,
		Clients:    cfg.Clients,
		QueueCap:   cfg.QueueCap,
		QueueKind:  cfg.QueueKind,
		AllocBatch: cfg.AllocBatch,
		SpinIters:  cfg.SpinIters,
		Throttle:   throttle,
		SleepScale: cfg.SleepScale,
		Metrics:    ms,
	}, livebind.WithReplyKind(replyKind))
	if err != nil {
		return Result{}, err
	}

	rootCtx, cancel := context.WithTimeout(context.Background(), cfg.Watchdog)
	defer cancel()
	var run liveRun
	srv := sys.Server()
	var serveEnd time.Time
	serverDone := make(chan int64, 1)
	go func() {
		served, err := srv.ServeCtx(rootCtx, nil)
		if err != nil {
			run.noteErr("server: %v", err)
		}
		serveEnd = time.Now()
		serverDone <- served
	}()

	var barrier sync.WaitGroup
	barrier.Add(cfg.Clients)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		cl, err := sys.Client(i)
		if err != nil {
			return Result{}, err
		}
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			defer livebind.DrainPort(cl.Srv)
			// Each client derives its own child context: cancellation
			// still fans out from rootCtx, but the per-message Err()
			// polls hit a per-client mutex instead of contending on one
			// shared context across every client goroutine.
			cctx, ccancel := context.WithCancel(rootCtx)
			defer ccancel()
			if ans, err := cl.SendCtx(cctx, core.Msg{Op: core.OpConnect}); err != nil {
				run.noteErr("client%d: connect: %v", i, err)
				barrier.Done()
				return
			} else if ans.Op != core.OpConnect {
				run.noteErr("client%d: bad connect reply %+v", i, ans)
			}
			barrier.Done()
			barrier.Wait()
			run.noteStart()
			for j := 0; j < cfg.Msgs; j++ {
				ans, err := cl.SendCtx(cctx, core.Msg{Op: core.OpEcho, Seq: int32(j), Val: float64(j)})
				if err != nil {
					run.noteErr("client%d: send %d: %v", i, j, err)
					return
				}
				if ans.Seq != int32(j) || ans.Val != float64(j) {
					run.noteErr("client%d: reply mismatch at %d: %+v", i, j, ans)
				}
			}
			if _, err := cl.SendCtx(cctx, core.Msg{Op: core.OpDisconnect}); err != nil {
				run.noteErr("client%d: disconnect: %v", i, err)
			}
		}(i, cl)
	}
	wg.Wait()
	// Unblock the server if clients bailed out without completing the
	// disconnect protocol (watchdog tripped), then tear the system down;
	// Shutdown also spills any batched producer caches.
	cancel()
	served := <-serverDone
	shutCtx, shutCancel := context.WithTimeout(context.Background(), time.Second)
	if err := sys.Shutdown(shutCtx); err != nil {
		run.noteErr("shutdown: %v", err)
	}
	shutCancel()

	res := run.result(fmt.Sprintf("live/%s/%dc", cfg.Alg, cfg.Clients), served, cfg.Msgs, serveEnd, ms)
	return res, run.check(served, int64(cfg.Clients*cfg.Msgs))
}

// liveRun collects what the goroutines of one live run report: when
// the first measured send started, and the first few failures.
type liveRun struct {
	mu      sync.Mutex
	started bool
	start   time.Time
	errs    []string
}

func (r *liveRun) noteStart() {
	r.mu.Lock()
	if !r.started {
		r.start = time.Now()
		r.started = true
	}
	r.mu.Unlock()
}

func (r *liveRun) noteErr(format string, args ...any) {
	r.mu.Lock()
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// result measures from the first send to end, at least 1 ns so the
// rates stay finite when no client got past its barrier.
func (r *liveRun) result(label string, served int64, msgs int, end time.Time, ms *metrics.Set) Result {
	dur := time.Nanosecond
	if r.started && end.After(r.start) {
		dur = end.Sub(r.start)
	}
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

// check fails the run on any noted failure or on a served count short
// of total.
func (r *liveRun) check(served, total int64) error {
	if len(r.errs) > 0 {
		return fmt.Errorf("workload: live validation failed: %v", r.errs)
	}
	if served != total {
		return fmt.Errorf("workload: served %d, want %d", served, total)
	}
	return nil
}

// runLiveGroup is the server-group variant of RunLive: every shard runs
// a vectored ServeBatchCtx loop on its own goroutine, every client
// pushes its messages in SendBatchCtx bursts of cfg.Batch. The harness
// skips the connect/disconnect handshake — shard membership is static
// and work stealing may carry a control op's bookkeeping to the wrong
// shard — so shards exit on the Shutdown marker once every client is
// done. Replies are validated as a per-batch multiset: stealing means
// another shard may answer, and answers may interleave, but every
// client must get exactly its own sequence set back.
func runLiveGroup(cfg LiveConfig, sys *livebind.System, ms *metrics.Set) (Result, error) {
	batch := cfg.Batch
	if batch < 1 {
		batch = 16
	}
	rootCtx, cancel := context.WithTimeout(context.Background(), cfg.Watchdog)
	defer cancel()
	var run liveRun

	srvs, err := sys.ShardServers()
	if err != nil {
		return Result{}, err
	}
	var served atomic.Int64
	var swg sync.WaitGroup
	for _, srv := range srvs {
		swg.Add(1)
		go func(sv *core.Server) {
			defer swg.Done()
			n, err := sv.ServeBatchCtx(rootCtx, nil, batch)
			if err != nil {
				run.noteErr("shard: %v", err)
			}
			served.Add(n)
		}(srv)
	}

	var barrier sync.WaitGroup
	barrier.Add(cfg.Clients)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		cl, err := sys.Client(i)
		if err != nil {
			return Result{}, err
		}
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			barrier.Done()
			barrier.Wait()
			run.noteStart()
			msgs := make([]core.Msg, 0, batch)
			var seenBig map[int32]bool // only allocated for batches > 64
			for j := 0; j < cfg.Msgs; j += len(msgs) {
				k := batch
				if j+k > cfg.Msgs {
					k = cfg.Msgs - j
				}
				msgs = msgs[:0]
				for q := 0; q < k; q++ {
					msgs = append(msgs, core.Msg{Op: core.OpEcho, Seq: int32(j + q), Val: float64(j + q)})
				}
				out, err := cl.SendBatchCtx(rootCtx, msgs)
				if err != nil {
					run.noteErr("client%d: batch at %d: %v", i, j, err)
					return
				}
				if len(out) != k {
					run.noteErr("client%d: batch at %d: %d replies, want %d", i, j, len(out), k)
					return
				}
				// Multiset check per batch: stolen work means replies may
				// interleave across shards, but every sequence must appear
				// exactly once. A bitmask keeps the check allocation-free
				// on the hot path (batches ≤ 64).
				var seen uint64
				if k > 64 {
					seenBig = make(map[int32]bool, k)
				}
				for _, m := range out {
					if m.Client != cl.ID || m.Seq < int32(j) || m.Seq >= int32(j+k) ||
						m.Val != float64(m.Seq) {
						run.noteErr("client%d: bad reply %+v in batch at %d", i, m, j)
						return
					}
					if k > 64 {
						if seenBig[m.Seq] {
							run.noteErr("client%d: duplicate reply %+v in batch at %d", i, m, j)
							return
						}
						seenBig[m.Seq] = true
						continue
					}
					bit := uint64(1) << uint(m.Seq-int32(j))
					if seen&bit != 0 {
						run.noteErr("client%d: duplicate reply %+v in batch at %d", i, m, j)
						return
					}
					seen |= bit
				}
			}
		}(i, cl)
	}
	wg.Wait()
	end := time.Now()

	// Shutdown releases the shard loops (they exit on the marker). The
	// shards share rootCtx, so cancelling it before they drain would
	// turn a clean exit into a spurious "context canceled" shard error;
	// only cancel early if shutdown itself failed to release them.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := sys.Shutdown(shutCtx); err != nil {
		run.noteErr("shutdown: %v", err)
		cancel()
	}
	shutCancel()
	swg.Wait()

	res := run.result(fmt.Sprintf("live/%s/%dc/%ds", cfg.Alg, cfg.Clients, cfg.Shards), served.Load(), cfg.Msgs, end, ms)
	return res, run.check(served.Load(), int64(cfg.Clients*cfg.Msgs))
}
