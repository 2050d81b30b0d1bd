// Benchmarks regenerating the paper's tables and figures (simulated
// platforms, deterministic virtual-time throughput reported as
// msgs/vms) and measuring the live runtime on the host (wall-clock).
//
//	go test -bench . -benchmem
//
// Figure benches report the simulated server throughput via
// b.ReportMetric as "msgs/vms" (messages per virtual millisecond) —
// the metric the paper's y-axes use; ns/op for those benches is the
// host cost of simulating the workload, not the IPC cost itself.
package ulipc_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"ulipc"
	"ulipc/internal/core"
	"ulipc/internal/machine"
	"ulipc/internal/protomodel"
	"ulipc/internal/queue"
	"ulipc/internal/shm"
	"ulipc/internal/workload"
)

const benchMsgs = 300

// benchSim runs one simulated workload per iteration and reports the
// virtual-time throughput of the last run.
func benchSim(b *testing.B, cfg workload.Config) {
	b.Helper()
	if cfg.Msgs == 0 {
		cfg.Msgs = benchMsgs
	}
	var th float64
	for i := 0; i < b.N; i++ {
		res, err := workload.RunSim(cfg)
		if err != nil {
			b.Fatal(err)
		}
		th = res.Throughput
	}
	b.ReportMetric(th, "msgs/vms")
}

// BenchmarkTable1 regenerates the primitive-operation rows of Table 1,
// reporting the simulated microseconds per primitive.
func BenchmarkTable1(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  workload.Config
		rtt  bool
	}{
		{"SGI/BSS1client", workload.Config{Machine: machine.SGIIndy(), Alg: core.BSS, Clients: 1}, true},
		{"SGI/SYSV1client", workload.Config{Machine: machine.SGIIndy(), Transport: workload.TransportSysV, Clients: 1}, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := tc.cfg
			cfg.Msgs = benchMsgs
			var rtt float64
			for i := 0; i < b.N; i++ {
				res, err := workload.RunSim(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rtt = res.RTTMicros
			}
			b.ReportMetric(rtt, "vus/rtt")
		})
	}
}

// BenchmarkFig2 regenerates Figure 2 (uniprocessor BSS vs SYSV).
func BenchmarkFig2(b *testing.B) {
	for _, m := range []*machine.Model{machine.SGIIndy(), machine.IBMP4()} {
		for _, n := range []int{1, 6} {
			b.Run(fmt.Sprintf("%s/BSS/%dclients", m.Name, n), func(b *testing.B) {
				benchSim(b, workload.Config{Machine: m, Alg: core.BSS, Clients: n})
			})
			b.Run(fmt.Sprintf("%s/SYSV/%dclients", m.Name, n), func(b *testing.B) {
				benchSim(b, workload.Config{Machine: m, Transport: workload.TransportSysV, Clients: n})
			})
		}
	}
}

// BenchmarkFig3 regenerates Figure 3 (fixed priorities).
func BenchmarkFig3(b *testing.B) {
	for _, m := range []*machine.Model{machine.SGIIndy(), machine.IBMP4()} {
		b.Run(m.Name+"/BSSfixed/1clients", func(b *testing.B) {
			benchSim(b, workload.Config{Machine: m, Alg: core.BSS, Policy: "fixed", Clients: 1})
		})
	}
}

// BenchmarkFig6 regenerates Figure 6 (Both Sides Wait).
func BenchmarkFig6(b *testing.B) {
	for _, m := range []*machine.Model{machine.SGIIndy(), machine.IBMP4()} {
		for _, n := range []int{1, 6} {
			b.Run(fmt.Sprintf("%s/BSW/%dclients", m.Name, n), func(b *testing.B) {
				benchSim(b, workload.Config{Machine: m, Alg: core.BSW, Clients: n})
			})
		}
	}
}

// BenchmarkFig8 regenerates Figure 8 (Both Sides Wait and Yield).
func BenchmarkFig8(b *testing.B) {
	for _, m := range []*machine.Model{machine.SGIIndy(), machine.IBMP4()} {
		for _, n := range []int{1, 6} {
			b.Run(fmt.Sprintf("%s/BSWY/%dclients", m.Name, n), func(b *testing.B) {
				benchSim(b, workload.Config{Machine: m, Alg: core.BSWY, Clients: n})
			})
		}
	}
	b.Run(machine.SGIIndy().Name+"/BSWYfixed/1clients", func(b *testing.B) {
		benchSim(b, workload.Config{Machine: machine.SGIIndy(), Alg: core.BSWY, Policy: "fixed", Clients: 1})
	})
}

// BenchmarkFig10 regenerates Figure 10 (BSLS MAX_SPIN sensitivity).
func BenchmarkFig10(b *testing.B) {
	for _, spin := range []int{1, 2, 5, 20} {
		for _, n := range []int{1, 6} {
			b.Run(fmt.Sprintf("SGI/BSLSspin%d/%dclients", spin, n), func(b *testing.B) {
				benchSim(b, workload.Config{Machine: machine.SGIIndy(), Alg: core.BSLS, MaxSpin: spin, Clients: n})
			})
		}
	}
}

// BenchmarkFig11 regenerates Figure 11 (8-CPU Challenge).
func BenchmarkFig11(b *testing.B) {
	m := machine.SGIChallenge8()
	for _, n := range []int{1, 4, 7} {
		b.Run(fmt.Sprintf("BSS/%dclients", n), func(b *testing.B) {
			benchSim(b, workload.Config{Machine: m, Alg: core.BSS, Clients: n})
		})
		for _, spin := range []int{1, 4} {
			b.Run(fmt.Sprintf("BSLSspin%d/%dclients", spin, n), func(b *testing.B) {
				benchSim(b, workload.Config{Machine: m, Alg: core.BSLS, MaxSpin: spin, Clients: n})
			})
		}
		b.Run(fmt.Sprintf("SYSV/%dclients", n), func(b *testing.B) {
			benchSim(b, workload.Config{Machine: m, Transport: workload.TransportSysV, Clients: n})
		})
	}
}

// BenchmarkFig12 regenerates Figure 12 (modified sched_yield in Linux).
func BenchmarkFig12(b *testing.B) {
	m := machine.Linux486()
	for _, tc := range []struct {
		name string
		cfg  workload.Config
	}{
		{"linuxmod/BSS/1clients", workload.Config{Machine: m, Policy: "linuxmod", Alg: core.BSS, Clients: 1}},
		{"linuxmod/BSWY/1clients", workload.Config{Machine: m, Policy: "linuxmod", Alg: core.BSWY, Clients: 1}},
		{"linuxmod/BSWYhandoff/1clients", workload.Config{Machine: m, Policy: "linuxmod", Alg: core.BSWY, Handoff: true, Clients: 1}},
		{"linuxmod/SYSV/1clients", workload.Config{Machine: m, Policy: "linuxmod", Transport: workload.TransportSysV, Clients: 1}},
	} {
		b.Run(tc.name, func(b *testing.B) { benchSim(b, tc.cfg) })
	}
}

// BenchmarkAblationThrottle regenerates the wake-throttling ablation at
// the MP collapse point.
func BenchmarkAblationThrottle(b *testing.B) {
	m := machine.SGIChallenge8()
	for _, throttle := range []int{0, 2} {
		b.Run(fmt.Sprintf("BSLSspin1/5clients/throttle%d", throttle), func(b *testing.B) {
			benchSim(b, workload.Config{Machine: m, Alg: core.BSLS, MaxSpin: 1, Clients: 5, Throttle: throttle})
		})
	}
}

// BenchmarkLiveRoundTrip measures a synchronous round trip on the live
// runtime (host wall-clock) for each protocol.
func BenchmarkLiveRoundTrip(b *testing.B) {
	for _, alg := range ulipc.Algorithms() {
		b.Run(alg.String(), func(b *testing.B) {
			sys, err := ulipc.NewSystem(ulipc.Options{Alg: alg, Clients: 1, MaxSpin: 20})
			if err != nil {
				b.Fatal(err)
			}
			srv := sys.Server()
			done := make(chan struct{})
			go func() { srv.Serve(nil); close(done) }()
			cl, err := sys.Client(0)
			if err != nil {
				b.Fatal(err)
			}
			cl.Send(ulipc.Msg{Op: ulipc.OpConnect})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cl.Send(ulipc.Msg{Op: ulipc.OpEcho, Seq: int32(i)})
			}
			b.StopTimer()
			cl.Send(ulipc.Msg{Op: ulipc.OpDisconnect})
			<-done
		})
	}
}

// BenchmarkLiveAsyncBatch measures the per-message cost of asynchronous
// batches on the live runtime — the batching amortisation the async
// experiment shows in virtual time.
func BenchmarkLiveAsyncBatch(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			sys, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSW, Clients: 1, QueueCap: batch * 2})
			if err != nil {
				b.Fatal(err)
			}
			srv := sys.Server()
			done := make(chan struct{})
			go func() { srv.Serve(nil); close(done) }()
			cl, err := sys.Client(0)
			if err != nil {
				b.Fatal(err)
			}
			cl.Send(ulipc.Msg{Op: ulipc.OpConnect})
			ctx := context.Background()
			b.ResetTimer()
			sent := 0
			for sent < b.N {
				n := batch
				if b.N-sent < n {
					n = b.N - sent
				}
				for i := 0; i < n; i++ {
					cl.SendAsyncCtx(ctx, ulipc.Msg{Op: ulipc.OpEcho})
				}
				for i := 0; i < n; i++ {
					cl.RecvReplyCtx(ctx)
				}
				sent += n
			}
			b.StopTimer()
			cl.Send(ulipc.Msg{Op: ulipc.OpDisconnect})
			<-done
		})
	}
}

// BenchmarkQueue measures the raw queue implementations (ablation A2):
// uncontended enqueue/dequeue pairs. The SPSC ring rides along as the
// reply-path comparator — it is excluded from Kinds() because the
// generic constructor cannot prove its topology, but a single-threaded
// enqueue/dequeue pair trivially satisfies the contract.
func BenchmarkQueue(b *testing.B) {
	bench := func(q queue.Queue) func(*testing.B) {
		return func(b *testing.B) {
			m := core.Msg{Op: core.OpEcho, Val: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !q.Enqueue(m) {
					b.Fatal("enqueue failed")
				}
				if _, ok := q.Dequeue(); !ok {
					b.Fatal("dequeue failed")
				}
			}
		}
	}
	for _, kind := range queue.Kinds() {
		q, err := queue.New(kind, 1024)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), bench(q))
	}
	spsc, err := queue.NewSPSC(1024)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("spsc", bench(spsc))
}

// BenchmarkQueuePipe measures each queue as a cross-goroutine pipe: one
// producer, one consumer, messages flowing one way. This is the shape of
// the live runtime's reply path, and the cell where the SPSC ring's
// cached indices should beat the MPMC implementations.
func BenchmarkQueuePipe(b *testing.B) {
	bench := func(q queue.Queue) func(*testing.B) {
		return func(b *testing.B) {
			done := make(chan struct{})
			b.ResetTimer()
			go func() {
				m := core.Msg{Op: core.OpEcho}
				for i := 0; i < b.N; i++ {
					for !q.Enqueue(m) {
						runtime.Gosched()
					}
				}
				close(done)
			}()
			for i := 0; i < b.N; i++ {
				for {
					if _, ok := q.Dequeue(); ok {
						break
					}
					runtime.Gosched()
				}
			}
			<-done
		}
	}
	for _, kind := range queue.Kinds() {
		q, err := queue.New(kind, 1024)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), bench(q))
	}
	spsc, err := queue.NewSPSC(1024)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("spsc", bench(spsc))
}

// BenchmarkQueueContended measures the queues under producer/consumer
// concurrency.
func BenchmarkQueueContended(b *testing.B) {
	for _, kind := range queue.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			q, err := queue.New(kind, 1024)
			if err != nil {
				b.Fatal(err)
			}
			b.RunParallel(func(pb *testing.PB) {
				m := core.Msg{Op: core.OpEcho}
				for pb.Next() {
					if q.Enqueue(m) {
						q.Dequeue()
					} else {
						q.Dequeue()
					}
				}
			})
		})
	}
}

// BenchmarkLiveDuplexRoundTrip measures the thread-per-client duplex
// architecture on the live runtime.
func BenchmarkLiveDuplexRoundTrip(b *testing.B) {
	sys, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSW, Clients: 1, Duplex: true})
	if err != nil {
		b.Fatal(err)
	}
	cl, h, err := sys.DuplexPair(0)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() { h.ServeConnCtx(context.Background(), nil); close(done) }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Send(ulipc.Msg{Op: ulipc.OpEcho})
	}
	b.StopTimer()
	cl.Send(ulipc.Msg{Op: ulipc.OpDisconnect})
	<-done
}

// BenchmarkBlockPool measures the variable-size component allocator.
func BenchmarkBlockPool(b *testing.B) {
	for _, size := range []int{48, 200, 900} {
		b.Run(fmt.Sprintf("alloc%d", size), func(b *testing.B) {
			pool, err := shm.NewDefaultBlockPool(64)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref, _, ok := pool.Alloc(size)
				if !ok {
					b.Fatal("alloc failed")
				}
				pool.Free(ref)
			}
		})
	}
}

// BenchmarkArch regenerates the architecture ablation at 6 clients on
// the uniprocessor.
func BenchmarkArch(b *testing.B) {
	for _, tc := range []struct {
		name string
		arch workload.Arch
	}{
		{"shared-queue", workload.ArchSharedQueue},
		{"thread-per-client", workload.ArchThreadPerClient},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchSim(b, workload.Config{
				Machine: machine.SGIIndy(), Alg: core.BSLS, MaxSpin: 20,
				Clients: 6, Arch: tc.arch,
			})
		})
	}
}

// BenchmarkProtomodel measures the exhaustive checker itself.
func BenchmarkProtomodel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := protomodel.Check(protomodel.FullProtocol(2, 2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveGoChannels is the idiomatic-Go comparator: the same echo
// round trip over plain Go channels (the runtime's own kernel-mediated
// analogue). It situates the live ulipc numbers against what a Go
// program would otherwise use.
func BenchmarkLiveGoChannels(b *testing.B) {
	req := make(chan ulipc.Msg, 64)
	rsp := make(chan ulipc.Msg, 64)
	done := make(chan struct{})
	go func() {
		for m := range req {
			rsp <- m
		}
		close(done)
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req <- ulipc.Msg{Op: ulipc.OpEcho, Seq: int32(i)}
		<-rsp
	}
	b.StopTimer()
	close(req)
	<-done
}

// BenchmarkLiveConnect measures the dynamic connect/close lifecycle.
func BenchmarkLiveConnect(b *testing.B) {
	sys, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSLS, Clients: 4})
	if err != nil {
		b.Fatal(err)
	}
	srv := sys.Server()
	done := make(chan struct{})
	go func() { srv.Serve(nil); close(done) }()
	anchor, err := sys.ConnectCtx(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := sys.ConnectCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.SendCtx(context.Background(), ulipc.Msg{Op: ulipc.OpEcho}); err != nil {
			b.Fatal(err)
		}
		c.CloseCtx(context.Background())
	}
	b.StopTimer()
	anchor.CloseCtx(context.Background())
	<-done
}

// benchLive runs one live workload sized to b.N total messages and
// reports wall-clock ns per round trip and server msgs/s.
func benchLive(b *testing.B, cfg workload.LiveConfig) {
	b.Helper()
	cfg.Msgs = (b.N + cfg.Clients - 1) / cfg.Clients
	if cfg.MaxSpin == 0 {
		cfg.MaxSpin = 20
	}
	res, err := workload.RunLive(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.RTTMicros*1e3, "ns/rtt")
	b.ReportMetric(res.Throughput*1e3, "msgs/s")
}

// BenchmarkLiveReplyKind isolates the reply leg: identical ring
// workloads whose reply queues are SPSC rings (the library default) or,
// with MPMCReplies, rings like the receive queue.
func BenchmarkLiveReplyKind(b *testing.B) {
	for _, spsc := range []bool{true, false} {
		name := "SPSC"
		if !spsc {
			name = "Ring"
		}
		b.Run(name, func(b *testing.B) {
			benchLive(b, workload.LiveConfig{
				Alg: ulipc.BSLS, Clients: 1,
				QueueKind: ulipc.QueueRing, SPSCReplies: spsc,
			})
		})
	}
}

// BenchmarkLiveAllocBatch measures producer-side allocation batching on
// the two-lock receive queue: one Treiber-stack CAS per k messages
// instead of one per message.
func BenchmarkLiveAllocBatch(b *testing.B) {
	for _, batch := range []int{0, 8, 32} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			benchLive(b, workload.LiveConfig{
				Alg: ulipc.BSW, Clients: 4,
				QueueKind: ulipc.QueueTwoLock, AllocBatch: batch,
			})
		})
	}
}

// BenchmarkLivePool measures worker-pool round trips on the live runtime
// across pool sizes.
func BenchmarkLivePool(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			msgs := b.N
			if msgs < 1 {
				msgs = 1
			}
			res, err := workload.RunLivePool(workload.LiveConfig{
				Alg: ulipc.BSW, Clients: 2, Msgs: (msgs + 1) / 2, MaxSpin: 8,
			}, workers)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Throughput, "msgs/ms")
		})
	}
}
