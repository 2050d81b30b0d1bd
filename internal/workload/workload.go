// Package workload implements the paper's client/server micro-benchmark
// (Section 2.2): up to n clients connect to a single-threaded echo
// server, barrier, and then barrage it with requests over the user-level
// IPC interface (or over System V message queues for the baseline).
// Server throughput is computed from the first message request to the
// last client disconnect, excluding connect-time processing.
package workload

import (
	"fmt"
	"sync/atomic"

	"ulipc/internal/core"
	"ulipc/internal/machine"
	"ulipc/internal/metrics"
	"ulipc/internal/sim"
	"ulipc/internal/sim/sched"
)

// Transport selects the IPC mechanism under test.
type Transport int

const (
	// TransportULIPC is user-level IPC over shared-memory queues using
	// one of the paper's protocols.
	TransportULIPC Transport = iota
	// TransportSysV is the kernel-mediated System V message queue
	// baseline.
	TransportSysV
)

func (t Transport) String() string {
	if t == TransportSysV {
		return "SYSV"
	}
	return "ULIPC"
}

// Arch selects the server architecture (Section 2.1).
type Arch int

const (
	// ArchSharedQueue is the paper's evaluation architecture: one
	// single-threaded server with a shared receive queue and a reply
	// queue per client.
	ArchSharedQueue Arch = iota
	// ArchThreadPerClient is the alternative Section 2.1 sketches: a
	// server thread per client with two queues per client forming a
	// full-duplex virtual connection.
	ArchThreadPerClient
)

func (a Arch) String() string {
	if a == ArchThreadPerClient {
		return "thread-per-client"
	}
	return "shared-queue"
}

// Config describes one benchmark run.
type Config struct {
	Machine   *machine.Model
	Policy    string // scheduler policy name (sched package)
	Transport Transport
	Arch      Arch           // server architecture (shared queue default)
	Alg       core.Algorithm // protocol when Transport == TransportULIPC
	Clients   int
	Msgs      int // requests per client
	MaxSpin   int // BSLS MAX_SPIN
	QueueCap  int // shared-queue capacity (free-pool size); default 64

	// ServerWorkers, when > 1, runs the server as a pool of that many
	// worker processes all receiving from the shared queue (the
	// "multiple server threads" of Section 2.1, using the
	// counted-waiters discipline model-checked in internal/protomodel).
	ServerWorkers int

	// Background spawns CPU-bound competitor processes — the
	// multiprogrammed environment of the paper's motivation (Section 1:
	// blocking semantics exist "to obtain the best overall system
	// throughput, particularly in multi-programmed environments").
	Background int

	ServerWork  sim.Time // per-request server-side processing (0 = pure echo)
	ClientThink sim.Time // client compute time between requests (0 = barrage)
	Handoff     bool     // use the handoff(pid) extension for scheduling hints
	Throttle    int      // server wake throttle (0 = unlimited)

	ServerPrio int
	ClientPrio int

	MaxTime sim.Time // simulation abort threshold; defaulted if zero

	// Trace, when non-nil, receives the kernel's scheduler events
	// (switches, blocks, wake-ups) during the run.
	Trace sim.TraceFn
}

func (c *Config) queueCap() int {
	if c.QueueCap <= 0 {
		return 64
	}
	return c.QueueCap
}

// Result summarises a run.
type Result struct {
	Label      string
	Throughput float64 // server throughput, messages per millisecond
	RTTMicros  float64 // mean round-trip time per request, microseconds
	Duration   sim.Time
	TotalMsgs  int64

	Server     metrics.Snapshot
	Clients    metrics.Snapshot // aggregated over all clients
	Background metrics.Snapshot // aggregated over background processes
	All        metrics.Snapshot
}

// BackgroundCPUShare returns the fraction of the measured interval the
// background processes spent on CPU (can exceed 1 on a multiprocessor).
func (r Result) BackgroundCPUShare() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Background.CPUTimeNS) / float64(r.Duration)
}

func (r Result) String() string {
	return fmt.Sprintf("%s: %.2f msg/ms (rtt %.1f us, %d msgs in %.2f ms)",
		r.Label, r.Throughput, r.RTTMicros, r.TotalMsgs, float64(r.Duration)/1e6)
}

// RunSim executes the workload on the discrete-event kernel and returns
// the measured result.
func RunSim(cfg Config) (Result, error) {
	if cfg.Machine == nil {
		return Result{}, fmt.Errorf("workload: nil machine")
	}
	if cfg.Clients < 1 {
		return Result{}, fmt.Errorf("workload: need at least 1 client")
	}
	if cfg.Msgs < 1 {
		return Result{}, fmt.Errorf("workload: need at least 1 message")
	}
	policy, err := sched.New(cfg.Policy)
	if err != nil {
		return Result{}, err
	}
	maxTime := cfg.MaxTime
	if maxTime <= 0 {
		// Generous ceiling: a full second of virtual time per message
		// plus slack for sleep(1) queue-full naps.
		maxTime = sim.Time(cfg.Clients*cfg.Msgs+60) * 2 * sim.Millisecond * 1000
	}
	ms := metrics.NewSet()
	k, err := sim.New(sim.Config{Machine: cfg.Machine, Sched: policy, MaxTime: maxTime, Metrics: ms, Trace: cfg.Trace})
	if err != nil {
		return Result{}, err
	}

	if cfg.Transport == TransportSysV {
		return runSimSysV(k, cfg, ms)
	}
	if cfg.Arch == ArchThreadPerClient {
		return runSimDuplex(k, cfg, ms)
	}
	if cfg.ServerWorkers > 1 {
		return runSimPool(k, cfg, ms)
	}
	return runSimULIPC(k, cfg, ms)
}

// spawnBackground adds the multiprogramming competitors: CPU-bound
// processes that run in 100us slices until the IPC measurement is over.
// Their accumulated CPU time is the "background progress" the blocking
// protocols are supposed to preserve.
func spawnBackground(k *sim.Kernel, cfg Config, stop *atomic.Bool) {
	const slice = 100 * sim.Microsecond
	for i := 0; i < cfg.Background; i++ {
		k.Spawn(fmt.Sprintf("bg%d", i), cfg.ClientPrio, func(p *sim.Proc) {
			for !stop.Load() {
				p.Step(slice)
			}
		})
	}
}

// recorder collects the timing anchors of the paper's methodology.
type recorder struct {
	firstReq sim.Time // earliest first-request timestamp over all clients
	lastDone sim.Time // server time when the last client disconnected
	started  bool
	errs     []string
}

func (r *recorder) noteStart(t sim.Time) {
	if !r.started || t < r.firstReq {
		r.firstReq = t
		r.started = true
	}
}

func (r *recorder) noteErr(format string, args ...any) {
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func buildResult(cfg Config, rec *recorder, ms *metrics.Set, label string) (Result, error) {
	if len(rec.errs) > 0 {
		return Result{}, fmt.Errorf("workload: validation failed: %v", rec.errs)
	}
	dur := rec.lastDone - rec.firstReq
	if dur <= 0 {
		return Result{}, fmt.Errorf("workload: non-positive measured duration %d", dur)
	}
	total := int64(cfg.Clients * cfg.Msgs)
	res := Result{
		Label:      label,
		Throughput: float64(total) / (float64(dur) / 1e6),
		RTTMicros:  float64(dur) / 1e3 / float64(cfg.Msgs),
		Duration:   dur,
		TotalMsgs:  total,
	}
	if s, ok := ms.Find("server"); ok {
		res.Server = s
	}
	res.Clients = ms.ByPrefix("client")
	res.Background = ms.ByPrefix("bg")
	res.All = ms.Total()
	return res, nil
}

// opForRun returns the request opcode for the configured workload.
func opForRun(cfg Config) int32 {
	if cfg.ServerWork > 0 {
		return core.OpWork
	}
	return core.OpEcho
}
