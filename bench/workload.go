package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"

	"ulipc"
	"ulipc/internal/metrics"
	"ulipc/internal/obs"
)

// spec is one named workload. Every workload is measured on one core:
// on the shared 2-vCPU VM the bounds were calibrated on, the time a
// cache line takes between the two vCPUs drifts between 300 and 500 ns
// over minutes (and drops to 55 ns when the hypervisor lands both on
// one physical core), and a two-core run of any of these shapes follows
// it (README.md § Calibration). The two-core shape of each workload is
// measured and reported by the --trace 1 run, never gated.
//
// windowMsgs is a source constant sized to about ten milliseconds on
// that box (seventeen on batch_fanin, so that a window's p99 has ten
// calls beyond it) — short and many, so that a run taken during a
// neighbour episode still has windows that fell between the bursts; it
// is never derived from a timing probe, so every window of every run
// on every commit carries the same work.
type spec struct {
	name       string
	clients    int
	batch      int  // messages per client call
	v1         bool // the error-less v1 verbs (Send/Serve) instead of the context ones
	windowMsgs int  // messages per window, all clients together

	// setupEvery is how many windows pass between two cold starts of the
	// untraced run: set-up is sampled along the whole run, like the
	// windows, so a neighbour burst cannot cover every sample of it.
	setupEvery int

	// start constructs, connects and starts the system on that many
	// cores (1 or 2).
	start func(ctx context.Context, w *spec, in *inputs, tr *tracer, cores int) (*instance, error)
}

var specs = []*spec{
	{name: "up_handoff", clients: 1, batch: 1, windowMsgs: 6_000, setupEvery: 4, start: startInproc},
	{name: "up_observed", clients: 1, batch: 1, windowMsgs: 5_000, setupEvery: 4, start: startInproc},
	{name: "spin_fanin", clients: 4, batch: 1, v1: true, windowMsgs: 16_000, setupEvery: 4, start: startInproc},
	{name: "batch_fanin", clients: 4, batch: 16, windowMsgs: 64_000, setupEvery: 4, start: startInproc},
	{name: "xproc_payload", clients: 1, batch: 1, windowMsgs: 2_800, setupEvery: 16, start: startXproc},
}

func specByName(name string) *spec {
	for _, w := range specs {
		if w.name == name {
			return w
		}
	}
	return nil
}

// callsPerWindow is each client's share of a window, in calls.
func (w *spec) callsPerWindow() int { return w.windowMsgs / w.clients / w.batch }

// msgBytes is the paper's fixed-size message (opcode, sequence number,
// double argument, reply channel); bytes_per_s counts it once each way.
const msgBytes = 24

const (
	inputsN    = 1 << 12
	inputsMask = inputsN - 1
	maxPayload = 4096
)

var payloadSizes = [...]int32{64, 256, 1024, 4096}

// inputs is everything --seed decides: the argument carried by each
// message, the payload size drawn for each request, and the bytes
// payloads are filled with. The system under test sees only these.
type inputs struct {
	vals  [inputsN]float64
	sizes [inputsN]int32
	fill  []byte // request seq is filled from fill[seq&inputsMask:]
}

func newInputs(seed int64) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{fill: make([]byte, inputsN+maxPayload)}
	for i := range in.vals {
		in.vals[i] = float64(r.Int63n(1 << 40))
		in.sizes[i] = payloadSizes[r.Intn(len(payloadSizes))]
	}
	r.Read(in.fill)
	return in
}

func (in *inputs) msg(op, seq int32) ulipc.Msg {
	return ulipc.Msg{Op: op, Seq: seq, Val: in.vals[seq&inputsMask]}
}

func (in *inputs) payload(seq int32) []byte {
	off := seq & inputsMask
	return in.fill[off : off+in.sizes[off]]
}

// stamp is what the payload server XORs into the first and the last
// eight bytes of request seq: a reply that comes back unmutated, or
// mutated for another request, fails the client's check.
func stamp(seq int32) uint64 { return (uint64(uint32(seq)) + 1) * 0x9E3779B97F4A7C15 }

func mutatePayload(b []byte, seq int32) {
	s := stamp(seq)
	binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)^s)
	t := b[len(b)-8:]
	binary.LittleEndian.PutUint64(t, binary.LittleEndian.Uint64(t)^s)
}

// payloadOK checks a reply payload against the bytes the request was
// filled with: same length, first and last eight bytes carrying the
// server's stamp for this seq.
func payloadOK(got, sent []byte, seq int32) bool {
	if len(got) != len(sent) {
		return false
	}
	s := stamp(seq)
	n := len(sent)
	return binary.LittleEndian.Uint64(got) == binary.LittleEndian.Uint64(sent)^s &&
		binary.LittleEndian.Uint64(got[n-8:]) == binary.LittleEndian.Uint64(sent[n-8:])^s
}

func echoOK(sent, got ulipc.Msg) bool {
	return got.Op == sent.Op && got.Seq == sent.Seq && got.Val == sent.Val
}

// counts are the per-layer event counters a run is charged with, summed
// over every handle (and both processes on xproc_payload). The index
// doubles as the probe kind the payload server child answers to.
type counts [numCounts]int64

const (
	cBlocks = iota // P operations that slept
	cWakes         // V operations that woke a sleeper
	cSpinIters
	cSpinFallThrus
	cRetries // queue-full naps, both verb families
	cPoolRefills
	cBlockFallbacks
	cBlockExhausts
	numCounts
)

func (c counts) sub(o counts) counts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func countsOf(s metrics.Snapshot) counts {
	return counts{
		cBlocks: s.Blocks, cWakes: s.Wakeups,
		cSpinIters: s.SpinIters, cSpinFallThrus: s.SpinFallThrus,
		cRetries: s.Retries + s.Sleeps, cPoolRefills: s.PoolRefills,
	}
}

// instance is one constructed, connected, running system.
type instance struct {
	// calls[c] makes client c's next call (batch messages), checks every
	// reply, and returns how many of its messages failed. With a tracer
	// attached it also records the client-side spans.
	calls []func() (failed int)

	counts       func() counts              // cumulative layer counters
	cpuNS        func() int64               // cumulative CPU of every process involved
	payloadBytes func() int64               // cumulative payload bytes delivered, both directions
	phases       func() []obs.ProtoSnapshot // obs phase histograms (traced runs)

	// stop disconnects, shuts down, waits for every server to return
	// and audits what the system holds; it returns the failures found.
	stop func() (failed int)
}

// --- in-process workloads ---

func newInprocSystem(w *spec, observed bool) (*ulipc.System, error) {
	var extra []ulipc.Option
	if observed || w.name == "up_observed" {
		extra = append(extra, ulipc.WithHistograms())
	}
	switch w.name {
	case "up_handoff", "up_observed":
		return ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSW, Clients: 1}, extra...)
	case "spin_fanin":
		return ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSLS, Clients: 4}, extra...)
	case "batch_fanin":
		return ulipc.NewSystemGroup(2, ulipc.Options{Alg: ulipc.BSW, Clients: 4}, extra...)
	}
	return nil, fmt.Errorf("no in-process system for workload %q", w.name)
}

// serve runs one server until shutdown. Untraced it is the library's
// own loop for the workload's verb family; traced it is the explicit
// receive → reply loop, so the harness can time each request's service
// from outside.
func serve(ctx context.Context, w *spec, srv *ulipc.Server, tr *tracer) error {
	sb := tr.buf(2 * w.clients * tracedCalls(w))
	switch {
	case w.v1 && tr == nil:
		srv.Serve(nil)
	case w.v1:
		for {
			m := srv.Receive()
			if m.Op == ulipc.OpShutdown {
				return nil
			}
			t0 := sb.now()
			srv.Reply(m.Client, m)
			sb.record(spanServe, m.Client, m.Seq, 1, t0)
		}
	case w.batch > 1 && tr == nil:
		_, err := srv.ServeBatchCtx(ctx, nil, w.batch)
		return err
	case w.batch > 1:
		buf := make([]ulipc.Msg, w.batch)
		out := make([]ulipc.Reply, 0, w.batch)
		for {
			n, err := srv.ReceiveBatchCtx(ctx, buf)
			if err != nil {
				return ignoreShutdown(err)
			}
			t0 := sb.now()
			out = out[:0]
			for _, m := range buf[:n] {
				out = append(out, ulipc.Reply{Client: m.Client, Msg: m})
			}
			if err := srv.ReplyBatchCtx(ctx, out); err != nil {
				return ignoreShutdown(err)
			}
			sb.recordRuns(buf[:n], t0)
		}
	case tr == nil:
		_, err := srv.ServeCtx(ctx, nil)
		return err
	default:
		for {
			m, err := srv.ReceiveCtx(ctx)
			if err != nil {
				return ignoreShutdown(err)
			}
			t0 := sb.now()
			if err := srv.ReplyCtx(ctx, m.Client, m); err != nil {
				return ignoreShutdown(err)
			}
			sb.record(spanServe, m.Client, m.Seq, 1, t0)
		}
	}
	return nil
}

func ignoreShutdown(err error) error {
	if errors.Is(err, ulipc.ErrShutdown) {
		return nil
	}
	return err
}

func startInproc(ctx context.Context, w *spec, in *inputs, tr *tracer, cores int) (_ *instance, err error) {
	runtime.GOMAXPROCS(cores)
	sys, err := newInprocSystem(w, tr != nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = sys.Shutdown(context.Background()) // servers already started return
		}
	}()
	var servers []*ulipc.Server
	if sys.Shards() > 0 {
		if servers, err = sys.ShardServers(); err != nil {
			return nil, err
		}
	} else {
		servers = []*ulipc.Server{sys.Server()}
	}
	served := make(chan error, len(servers))
	for _, srv := range servers {
		go func() { served <- serve(ctx, w, srv, tr) }()
	}
	// The v1 verbs take no context: the watchdog reaches them through
	// Shutdown, which hands every parked caller the OpShutdown marker.
	stopWatch := context.AfterFunc(ctx, func() { _ = sys.Shutdown(context.Background()) })

	inst := &instance{
		counts: func() counts {
			s := sys.MetricsV2()
			c := countsOf(s.Total)
			for _, b := range s.Blocks {
				c[cBlockFallbacks] += b.Fallbacks
				c[cBlockExhausts] += b.Exhausts
			}
			return c
		},
		cpuNS:        processCPU,
		payloadBytes: func() int64 { return 0 },
		phases:       func() []obs.ProtoSnapshot { return sys.MetricsV2().Protos },
	}
	clients := make([]*ulipc.Client, w.clients)
	for c := range clients {
		cl, err := sys.Client(c)
		if err != nil {
			return nil, err
		}
		if _, err := cl.SendCtx(ctx, ulipc.Msg{Op: ulipc.OpConnect}); err != nil {
			return nil, fmt.Errorf("connect client %d: %w", c, err)
		}
		clients[c] = cl
		inst.calls = append(inst.calls, inprocCall(ctx, w, in, cl, int32(c), tr))
	}
	inst.stop = func() (failed int) {
		stopWatch()
		for _, cl := range clients {
			if _, err := cl.SendCtx(ctx, ulipc.Msg{Op: ulipc.OpDisconnect}); err != nil {
				failed++
			}
		}
		if err := sys.Shutdown(ctx); err != nil {
			failed++
		}
		for range servers {
			if err := <-served; err != nil {
				failed++
			}
		}
		return failed
	}
	return inst, nil
}

// inprocCall builds client id's call: one verified round trip on the
// workload's verb (SendCtx, the v1 Send, or a SendBatchCtx of w.batch).
func inprocCall(ctx context.Context, w *spec, in *inputs, cl *ulipc.Client, id int32, tr *tracer) func() int {
	sb := tr.buf(tracedCalls(w))
	var seq int32
	switch {
	case w.batch > 1:
		msgs := make([]ulipc.Msg, w.batch)
		return func() int {
			base := seq
			for i := range msgs {
				msgs[i] = in.msg(ulipc.OpEcho, seq)
				seq++
			}
			t0 := sb.now()
			replies, err := cl.SendBatchCtx(ctx, msgs)
			sb.record(spanSend, id, base, int32(w.batch), t0)
			if err != nil {
				return w.batch
			}
			// A stealing shard may answer part of a batch, so replies are
			// checked as a set: each of the batch's seqs exactly once.
			var seen uint64
			for _, r := range replies {
				if i := r.Seq - base; i >= 0 && int(i) < w.batch && echoOK(in.msg(ulipc.OpEcho, r.Seq), r) {
					seen |= 1 << uint(i)
				}
			}
			return w.batch - bits.OnesCount64(seen)
		}
	case w.v1:
		return func() int {
			m := in.msg(ulipc.OpEcho, seq)
			seq++
			t0 := sb.now()
			r := cl.Send(m)
			sb.record(spanSend, id, m.Seq, 1, t0)
			return failedIf(!echoOK(m, r))
		}
	default:
		return func() int {
			m := in.msg(ulipc.OpEcho, seq)
			seq++
			t0 := sb.now()
			r, err := cl.SendCtx(ctx, m)
			sb.record(spanSend, id, m.Seq, 1, t0)
			return failedIf(err != nil || !echoOK(m, r))
		}
	}
}

func failedIf(bad bool) int {
	if bad {
		return 1
	}
	return 0
}
