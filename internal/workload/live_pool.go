package workload

import (
	"fmt"
	"sync"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
)

// RunLivePool executes the worker-pool workload on the live runtime:
// LiveConfig.Workers server goroutines share the receive queue using the
// model-checked counted-waiters discipline.
func RunLivePool(cfg LiveConfig, workers int) (Result, error) {
	if workers < 1 {
		return Result{}, fmt.Errorf("workload: need at least 1 worker")
	}
	if cfg.Clients < 1 || cfg.Msgs < 1 {
		return Result{}, fmt.Errorf("workload: need at least 1 client and 1 message")
	}
	if cfg.SleepScale == 0 {
		cfg.SleepScale = time.Millisecond
	}
	ms := metrics.NewSet()
	maxSpin, _ := tuneFor(cfg.Alg, cfg.MaxSpin, 0)
	sys, err := livebind.NewSystem(livebind.Options{
		Alg:        cfg.Alg,
		MaxSpin:    maxSpin,
		Clients:    cfg.Clients,
		QueueCap:   cfg.QueueCap,
		QueueKind:  cfg.QueueKind,
		SpinIters:  cfg.SpinIters,
		SleepScale: cfg.SleepScale,
		Metrics:    ms,
	})
	if err != nil {
		return Result{}, err
	}
	pool, err := sys.WorkerPool(workers)
	if err != nil {
		return Result{}, err
	}

	var swg sync.WaitGroup
	for _, w := range pool {
		swg.Add(1)
		go func(w *core.PoolWorker) {
			defer swg.Done()
			w.Serve(nil)
		}(w)
	}

	var run liveRun
	var barrier, wg sync.WaitGroup
	barrier.Add(cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		cl, err := sys.PoolClient(i)
		if err != nil {
			return Result{}, err
		}
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			if ans := cl.Send(core.Msg{Op: core.OpConnect}); ans.Op != core.OpConnect {
				run.noteErr("client%d: bad connect reply %+v", i, ans)
			}
			barrier.Done()
			barrier.Wait()
			run.noteStart()
			for j := 0; j < cfg.Msgs; j++ {
				ans := cl.Send(core.Msg{Op: core.OpEcho, Seq: int32(j), Val: float64(j)})
				if ans.Seq != int32(j) || ans.Val != float64(j) {
					run.noteErr("client%d: reply mismatch at %d: %+v", i, j, ans)
				}
			}
			cl.Send(core.Msg{Op: core.OpDisconnect})
		}(i, cl)
	}
	wg.Wait()
	swg.Wait()
	end := time.Now()

	served := pool[0].C.Served()
	res := run.result(fmt.Sprintf("live-pool%d/%s/%dc", workers, cfg.Alg, cfg.Clients), served, cfg.Msgs, end, ms)
	return res, run.check(served, int64(cfg.Clients*cfg.Msgs))
}
