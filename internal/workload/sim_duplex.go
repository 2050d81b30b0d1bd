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

// runSimDuplex runs the thread-per-client architecture (Section 2.1's
// alternative): one server handler process per client, with a pair of
// unidirectional queues forming a full-duplex virtual connection.
func runSimDuplex(k *sim.Kernel, cfg Config, ms *metrics.Set) (Result, error) {
	rec := &recorder{}
	capacity := cfg.queueCap()
	op := opForRun(cfg)
	barrier := k.NewBarrier(cfg.Clients)

	type connQueues struct {
		c2s *simbind.SQueue
		s2c *simbind.SQueue
	}
	conns := make([]connQueues, cfg.Clients)
	for i := range conns {
		conns[i] = connQueues{
			c2s: simbind.NewQueue(k, fmt.Sprintf("c2s%d", i), capacity),
			s2c: simbind.NewQueue(k, fmt.Sprintf("s2c%d", i), capacity),
		}
	}

	var remaining atomic.Int64
	remaining.Store(int64(cfg.Clients))

	var stop atomic.Bool
	spawnBackground(k, cfg, &stop)

	for i := 0; i < cfg.Clients; i++ {
		i := i
		k.Spawn(fmt.Sprintf("server%d", i), cfg.ServerPrio, func(p *sim.Proc) {
			h := &core.DuplexHandler{
				Alg:     cfg.Alg,
				MaxSpin: cfg.MaxSpin,
				Rcv:     simbind.NewPort(p, conns[i].c2s),
				Snd:     simbind.NewPort(p, conns[i].s2c),
				A:       simbind.NewActor(p),
				M:       p.M,
			}
			var work func(*core.Msg)
			if cfg.ServerWork > 0 {
				work = func(*core.Msg) { p.Step(cfg.ServerWork) }
			}
			if _, err := h.ServeConnCtx(context.Background(), work); err != nil {
				rec.noteErr("server%d: %v", i, err)
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
				Srv:     simbind.NewPort(p, conns[i].c2s),
				Rcv:     simbind.NewPort(p, conns[i].s2c),
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
	label := fmt.Sprintf("%s-duplex/%s/%dc", cfg.Alg, cfg.Machine.Name, cfg.Clients)
	res, err := buildResult(cfg, rec, ms, label)
	if err != nil {
		return Result{}, err
	}
	// Aggregate the per-connection server handlers under Server.
	res.Server = ms.ByPrefix("server")
	return res, nil
}
