package workload

import (
	"fmt"
	"sync"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
)

// RunLivePool executes the worker-pool workload on the live runtime:
// workers server goroutines share the receive queue using the
// model-checked counted-waiters discipline. Like RunLive, every
// participant runs under cfg.Watchdog.
func RunLivePool(cfg LiveConfig, workers int) (Result, error) {
	if workers < 1 {
		return Result{}, fmt.Errorf("workload: need at least 1 worker")
	}
	if err := cfg.defaults(); err != nil {
		return Result{}, err
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

	c := newCell(cfg.Watchdog)
	defer c.cancel()
	var swg sync.WaitGroup
	for _, w := range pool {
		swg.Add(1)
		go func(w *core.PoolWorker) {
			defer swg.Done()
			if err := w.ServeCtx(c.ctx, nil); err != nil {
				c.noteErr("worker: %v", err)
			}
			c.noteEnd()
		}(w)
	}
	if err := c.echoClients(cfg, sys.PoolClient); err != nil {
		return Result{}, err
	}
	c.teardown(sys, &swg)

	served := pool[0].C.Served()
	res := c.result(fmt.Sprintf("live-pool%d/%s/%dc", workers, cfg.Alg, cfg.Clients), served, cfg.Msgs, ms)
	return res, c.check(served, int64(cfg.Clients*cfg.Msgs))
}
