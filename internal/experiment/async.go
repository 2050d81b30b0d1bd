package experiment

import (
	"context"
	"fmt"

	"ulipc/internal/chart"
	"ulipc/internal/core"
	"ulipc/internal/machine"
	"ulipc/internal/metrics"
	"ulipc/internal/sim"
	"ulipc/internal/sim/sched"
	"ulipc/internal/simbind"
)

// RunAsync demonstrates the asynchronous-IPC advantage the paper's
// introduction motivates: "a client process can enqueue multiple
// asynchronous messages on to a shared queue without blocking waiting
// for a response... when the server gets the opportunity to run, it can
// handle requests and respond without invoking kernel services until all
// pending requests are processed." The experiment compares the
// per-message round-trip cost of synchronous Sends against async batches
// of increasing depth on the SGI uniprocessor model.
func RunAsync(opt Options) (*Report, error) {
	r := newReport("async", "Asynchronous send batching (uniprocessor)",
		"batching asynchronous sends amortises system calls and context switches across the batch")
	msgs := opt.msgs()

	t := &chart.Table{
		Title:   "Async batching — SGI uniprocessor, BSW protocol",
		Headers: []string{"batch", "us/msg", "syscalls/msg", "switches/msg"},
	}
	var perMsg []float64
	batches := []int{1, 2, 4, 8, 16}
	for _, batch := range batches {
		us, sysPer, csPer, err := runAsyncBatch(machine.SGIIndy(), batch, msgs)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", batch), f2(us), f2(sysPer), f2(csPer))
		perMsg = append(perMsg, us)
		r.Records[fmt.Sprintf("async/us_per_msg/%d", batch)] = us
		r.Records[fmt.Sprintf("async/syscalls_per_msg/%d", batch)] = sysPer
	}
	r.Tables = append(r.Tables, t)
	r.Plots = append(r.Plots, &chart.Plot{
		Title:  "Async batching — per-message cost vs batch depth",
		XLabel: "batch depth", YLabel: "us/msg",
		X:      floats(batches),
		Series: []chart.Series{{Name: "BSW async", Y: perMsg}},
	})
	r.note("Batch 1 is a synchronous round trip; deeper batches approach the pure enqueue/dequeue cost because the server drains the whole queue per activation.")
	return r, nil
}

// runAsyncBatch runs one client issuing msgs requests in async batches
// of the given depth against an echoing server, all over the BSW
// protocol, and returns per-message cost and syscall/switch rates.
func runAsyncBatch(m *machine.Model, batch, msgs int) (usPerMsg, syscallsPerMsg, switchesPerMsg float64, err error) {
	pol, err := sched.New(sched.PolicyDegrading)
	if err != nil {
		return 0, 0, 0, err
	}
	ms := metrics.NewSet()
	k, err := sim.New(sim.Config{Machine: m, Sched: pol, Metrics: ms})
	if err != nil {
		return 0, 0, 0, err
	}
	// Queue capacity must accommodate a full batch.
	capacity := batch * 2
	if capacity < 64 {
		capacity = 64
	}
	recvQ := simbind.NewQueue(k, "recvQ", capacity)
	replyQ := simbind.NewQueue(k, "replyQ", capacity)

	rounds := msgs / batch
	if rounds < 1 {
		rounds = 1
	}
	total := rounds * batch

	k.Spawn("server", 0, func(p *sim.Proc) {
		srv := &core.Server{
			Alg:     core.BSW,
			Rcv:     simbind.NewPort(p, recvQ),
			Replies: []core.Port{simbind.NewPort(p, replyQ)},
			A:       simbind.NewActor(p),
			M:       p.M,
		}
		for i := 0; i < total; i++ {
			msg := srv.Receive()
			srv.Reply(0, msg)
		}
	})

	var elapsed sim.Time
	k.Spawn("client0", 0, func(p *sim.Proc) {
		cl := &core.Client{
			ID:  0,
			Alg: core.BSW,
			Srv: simbind.NewPort(p, recvQ),
			Rcv: simbind.NewPort(p, replyQ),
			A:   simbind.NewActor(p),
			M:   p.M,
		}
		// The simulated queues never shut down and a background context
		// never ends, so neither verb below can fail.
		ctx := context.Background()
		t0 := p.Now()
		seq := int32(0)
		for round := 0; round < rounds; round++ {
			for i := 0; i < batch; i++ {
				_ = cl.SendAsyncCtx(ctx, core.Msg{Op: core.OpEcho, Seq: seq})
				seq++
			}
			for i := 0; i < batch; i++ {
				_, _ = cl.RecvReplyCtx(ctx)
			}
		}
		elapsed = p.Now() - t0
	})

	if err := k.Run(); err != nil {
		return 0, 0, 0, err
	}
	tot := ms.Total()
	n := float64(total)
	return float64(elapsed) / 1000.0 / n,
		float64(tot.Syscalls) / n,
		float64(tot.SwitchesTotal()) / n,
		nil
}
