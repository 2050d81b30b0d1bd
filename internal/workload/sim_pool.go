package workload

import (
	"context"
	"fmt"
	"sync/atomic"

	"ulipc/internal/core"
	"ulipc/internal/metrics"
	"ulipc/internal/sim"
	"ulipc/internal/simbind"
)

// runSimPool runs the worker-pool architecture: ServerWorkers server
// processes all receiving from one shared queue using the counted-waiters
// discipline (model-checked in internal/protomodel), replying on
// per-client queues with the paper's flag protocol.
func runSimPool(k *sim.Kernel, cfg Config, ms *metrics.Set) (Result, error) {
	rec := &recorder{}
	capacity := cfg.queueCap()
	op := opForRun(cfg)
	barrier := k.NewBarrier(cfg.Clients)

	recvQ := simbind.NewQueue(k, "recvQ", capacity)
	replyQs := make([]*simbind.SQueue, cfg.Clients)
	for i := range replyQs {
		replyQs[i] = simbind.NewQueue(k, fmt.Sprintf("replyQ%d", i), capacity)
	}

	var stop atomic.Bool
	spawnBackground(k, cfg, &stop)

	coord := &core.PoolCoordinator{Workers: cfg.ServerWorkers}
	var remaining atomic.Int64
	remaining.Store(int64(cfg.ServerWorkers))

	for w := 0; w < cfg.ServerWorkers; w++ {
		k.Spawn(fmt.Sprintf("server%d", w), cfg.ServerPrio, func(p *sim.Proc) {
			replies := make([]core.Port, cfg.Clients)
			for i := range replies {
				replies[i] = simbind.NewPort(p, replyQs[i])
			}
			worker := &core.PoolWorker{
				Alg:     cfg.Alg,
				MaxSpin: cfg.MaxSpin,
				Rcv:     simbind.NewPoolPort(p, recvQ),
				Replies: replies,
				A:       simbind.NewActor(p),
				C:       coord,
				M:       p.M,
			}
			var work func(*core.Msg)
			if cfg.ServerWork > 0 {
				work = func(*core.Msg) { p.Step(cfg.ServerWork) }
			}
			if err := worker.ServeCtx(context.Background(), work); err != nil {
				rec.noteErr("server%d: %v", w, err)
			}
			if remaining.Add(-1) == 0 {
				rec.lastDone = p.Now()
				stop.Store(true)
			}
		})
	}

	for i := 0; i < cfg.Clients; i++ {
		i := i
		k.Spawn(fmt.Sprintf("client%d", i), cfg.ClientPrio, func(p *sim.Proc) {
			cl := &core.Client{
				ID:      int32(i),
				Alg:     cfg.Alg,
				MaxSpin: cfg.MaxSpin,
				Srv:     simbind.NewPoolPort(p, recvQ),
				Rcv:     simbind.NewPort(p, replyQs[i]),
				A:       simbind.NewActor(p),
				M:       p.M,
			}
			ans := cl.Send(core.Msg{Op: core.OpConnect})
			if ans.Op != core.OpConnect {
				rec.noteErr("client%d: bad connect reply op %d", i, ans.Op)
			}
			p.Barrier(barrier)
			rec.noteStart(p.Now())
			for j := 0; j < cfg.Msgs; j++ {
				if cfg.ClientThink > 0 {
					p.Step(cfg.ClientThink)
				}
				ans := cl.Send(core.Msg{Op: op, Seq: int32(j), Val: float64(j)})
				if ans.Seq != int32(j) || ans.Val != float64(j) {
					rec.noteErr("client%d: reply mismatch at %d: %+v", i, j, ans)
				}
			}
			cl.Send(core.Msg{Op: core.OpDisconnect})
		})
	}

	if err := k.Run(); err != nil {
		return Result{}, err
	}
	label := fmt.Sprintf("%s-pool%d/%s/%dc", cfg.Alg, cfg.ServerWorkers, cfg.Machine.Name, cfg.Clients)
	res, err := buildResult(cfg, rec, ms, label)
	if err != nil {
		return Result{}, err
	}
	res.Server = ms.ByPrefix("server")
	return res, nil
}
