// Package ulipc is a Go reproduction of "Efficient Sleep/Wake-up
// Protocols for User-Level IPC" (Unrau & Krieger, ICPP 1998): a
// Send/Receive/Reply client-server IPC facility layered over
// shared-memory FIFO queues, with the paper's four sleep/wake-up
// protocols (BSS, BSW, BSWY, BSLS) plus BSA, an adaptive fifth that
// tunes the paper's hand-set constants online (Options{Alg: BSA}).
//
// Two bindings execute the same protocol code:
//
//   - The live runtime (NewSystem) runs over real atomics, a bounded
//     lock-free MPMC ring as the shared receive queue (the paper's
//     Michael & Scott two-lock queue stays selectable with
//     QueueTwoLock), and counting semaphores — this is the API a Go
//     program uses.
//   - The discrete-event simulator (internal/sim + internal/experiment,
//     driven by cmd/ipcbench and cmd/ipcsim) reproduces the paper's
//     evaluation: scheduler interactions, context-switch accounting, and
//     every table and figure.
//
// Quick start (context-threaded, error-returning; every setting is an
// Options field):
//
//	sys, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSLS, Clients: 1})
//	if err != nil { ... }
//	srv := sys.Server()
//	go srv.ServeCtx(context.Background(), nil)
//	cl, _ := sys.Client(0)
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	reply, err := cl.SendCtx(ctx, ulipc.Msg{Op: ulipc.OpEcho, Val: 42})
//	...
//	sys.Shutdown(ctx) // graceful drain; parked waiters get ErrShutdown
//
// Each verb is its Ctx form. Four error-less wrappers remain,
// Client.Send and Server.Receive, Reply and Serve: each runs its Ctx
// verb under context.Background(), and a call that a shutdown unblocks
// returns the OpShutdown marker message instead of an error.
//
// See DESIGN.md for the system inventory (§7 covers the cancellation
// and wake-token protocol) and EXPERIMENTS.md for the paper-vs-measured
// record of every reproduced artefact.
package ulipc

import (
	"os"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/obs"
	"ulipc/internal/queue"
	"ulipc/internal/shm"
)

// Msg is the fixed-size IPC message (opcode, reply channel, sequence
// number, double-precision argument, payload block reference). The
// reply route and payload reference live in the embedded MsgMeta;
// field promotion makes m.Client and m.Ref work directly, so the
// nested type only shows up when constructing a Msg literal that sets
// them.
type Msg = core.Msg

// MsgMeta is the runtime-owned part of a Msg: the reply route (Client)
// and the payload block reference (Ref, encoded by Msg.SetBlock). It is
// a separate embedded struct so Msg stays within the compiler's
// four-field limit for keeping struct copies in registers — see the
// core.Msg doc comment before changing either.
type MsgMeta = core.MsgMeta

// Operation codes understood by Server.ServeCtx.
const (
	OpEcho       = core.OpEcho
	OpConnect    = core.OpConnect
	OpDisconnect = core.OpDisconnect
	OpWork       = core.OpWork

	// OpShutdown marks the message the error-less wrappers (Client.Send,
	// Server.Receive) return when the system is shut down underneath
	// them.
	OpShutdown = core.OpShutdown
)

// Sentinel errors of the context-threaded (v2) API surface. Branch with
// errors.Is; constructor errors may wrap additional detail.
var (
	// ErrShutdown: the system was shut down — parked waiters are
	// unblocked with it and new sends fail fast while draining.
	ErrShutdown = core.ErrShutdown

	// ErrDisconnected: send on a connection after a completed
	// disconnect handshake.
	ErrDisconnected = core.ErrDisconnected

	// ErrDoubleReply: ReplyCtx with no request outstanding for the
	// target client.
	ErrDoubleReply = core.ErrDoubleReply

	// ErrUnknownAlgorithm: an Algorithm value outside the registered
	// protocols (the error-less wrappers panic with this same sentinel).
	ErrUnknownAlgorithm = core.ErrUnknownAlgorithm

	// ErrOverload: a *Ctx send rejected by admission control (request
	// queue at or past the Options.Admission high-water mark) or by a dry
	// retry budget. The request was not enqueued; back off or shed
	// load — retrying immediately is what admission exists to stop.
	ErrOverload = core.ErrOverload

	// ErrBadClients, ErrBadOption, ErrSPSCTopology: typed NewSystem
	// validation failures. ErrNoFreeSlots: ConnectCtx found no free
	// client slot.
	ErrBadClients   = livebind.ErrBadClients
	ErrBadOption    = livebind.ErrBadOption
	ErrSPSCTopology = livebind.ErrSPSCTopology
	ErrNoFreeSlots  = livebind.ErrNoFreeSlots

	// ErrBadTuning: a contradictory tuning configuration — the adaptive
	// controller (Alg BSA) combined with a hand-set MaxSpin or a wake
	// Throttle.
	ErrBadTuning = livebind.ErrBadTuning
)

// Algorithm selects a sleep/wake-up protocol.
type Algorithm = core.Algorithm

// The four protocols of the paper, plus the adaptive extension.
const (
	BSS  = core.BSS  // Both Sides Spin (Figure 1)
	BSW  = core.BSW  // Both Sides Wait (Figure 5)
	BSWY = core.BSWY // Both Sides Wait and Yield (Figure 7)
	BSLS = core.BSLS // Both Sides Limited Spin (Figure 9)
	BSA  = core.BSA  // Both Sides Adaptive (online spin-budget controller)
)

// DefaultMaxSpin is the MAX_SPIN the paper recommends for BSLS.
const DefaultMaxSpin = core.DefaultMaxSpin

// Algorithms returns the registered protocols in presentation order.
func Algorithms() []Algorithm { return core.Algorithms() }

// AlgorithmByName parses a protocol name ("BSS", "BSW", "BSWY", "BSLS",
// "BSA"; lowercase accepted).
func AlgorithmByName(s string) (Algorithm, error) { return core.AlgorithmByName(s) }

// Client is the client side of a connection: synchronous SendCtx plus
// the asynchronous SendAsyncCtx/RecvReplyCtx pair.
type Client = core.Client

// Server is the single-threaded server loop: ReceiveCtx/ReplyCtx, or
// the canonical echo ServeCtx loop.
type Server = core.Server

// Options configures a live IPC system. Every setting is a field; the
// zero value of each is the default:
//
//	sys, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSA, Clients: 4,
//		MPMCReplies: true, Observer: ulipc.NewObserver(ulipc.ObserverConfig{})})
type Options = livebind.Options

// Option is a setting NewSystem applies on top of the Options struct.
// WithHistograms is the only one; Options.Observer is the field form.
type Option = livebind.Option

// WithHistograms attaches a fresh histogram-only observer, as
// Options.Observer set to NewObserver(ObserverConfig{}) does.
var WithHistograms = livebind.WithHistograms

// TunerSnapshot is a point-in-time view of one BSA controller (budget
// gauge plus decision counters), from System.TunerSnapshots.
type TunerSnapshot = core.TunerSnapshot

// Admission is the overload-doctrine configuration, set as
// Options.Admission. Every field is opt-in — the zero value keeps the
// system fully open at zero send-path cost: HighWater (request-queue
// depth past which sends fail fast with ErrOverload) and RetryCap
// (token bucket bounding queue-full retry rounds; each successful send
// earns back a tenth of a retry).
type Admission = livebind.Admission

// ShedPolicy configures deadline-aware shedding at the server's
// dequeue: assign one to Server.Shed and messages whose Deadline has
// passed are dropped before any service time is spent on them (payload
// lease claim-freed, Sheds counter ticked, the sender's consumer woken
// through the token-conserving TAS guard). Pair it with deadline-aware
// clients — a shed message's reply never comes.
type ShedPolicy = core.ShedPolicy

// Observer collects per-protocol phase-latency histograms (send RTT,
// queue wait, spin, sleep) and — when configured with a RecorderCap —
// a bounded in-memory flight recorder of recent IPC events. Attach one
// to a System as Options.Observer; read results through System.MetricsV2,
// System.WritePrometheus, or Observer.Snapshot.
type Observer = obs.Observer

// ObserverConfig configures NewObserver (protocol names and the flight
// recorder capacity).
type ObserverConfig = obs.Config

// NewObserver builds an observer. The zero config attaches the four
// protocol histogram sets and no flight recorder.
func NewObserver(cfg ObserverConfig) *Observer { return obs.New(cfg) }

// System wires one server and its clients over live shared queues.
// System.Shutdown(ctx) tears it down gracefully: drain, unblock, spill.
type System = livebind.System

// NewSystem builds a live IPC system. Configuration errors wrap the
// typed sentinels (ErrBadClients, ErrBadOption, ErrSPSCTopology).
func NewSystem(opts Options, extra ...Option) (*System, error) {
	return livebind.NewSystem(opts, extra...)
}

// NewSystemGroup builds a sharded system: a group of server shards
// partitioning the clients. Client i is served by shard i mod shards
// alone, over its own SPSC request lane and reply ring; shards may not
// outnumber clients. Run each shard's ServeBatchCtx (from
// System.ShardServer or System.ShardServers) on its own goroutine:
//
//	sys, err := ulipc.NewSystemGroup(4, ulipc.Options{Alg: ulipc.BSW, Clients: 16})
//	if err != nil { ... }
//	srvs, _ := sys.ShardServers()
//	for _, srv := range srvs {
//		go srv.ServeBatchCtx(ctx, nil, 16) // vectored echo loop, batch 16
//	}
//	cl, _ := sys.Client(0)
//	replies, err := cl.SendBatchCtx(ctx, msgs) // k messages per wake; replies overwrite msgs
func NewSystemGroup(shards int, opts Options, extra ...Option) (*System, error) {
	return livebind.NewSystemGroup(shards, opts, extra...)
}

// Reply pairs a client id with its reply message for
// Server.ReplyBatchCtx, the vectored reply path (one wake per client
// per batch).
type Reply = core.Reply

// QueueKind selects the shared-queue implementation. Its zero value is
// QueueRing, so Options{} builds the shared receive queue as a bounded
// lock-free MPMC ring.
type QueueKind = queue.Kind

// Queue implementations: a bounded MPMC ring (the default), the paper's
// two-lock Michael & Scott queue, the lock-free M&S queue, and a
// Lamport SPSC ring. QueueTwoLock is the queue of the paper's figures
// and the one fault injection's queue crashpoints and robust-lock
// reclaim act on. QueueSPSC is not a valid Options.QueueKind: the
// system builds the per-client reply channels as SPSC rings by default
// (Options.MPMCReplies switches them to QueueKind), because those are
// the one place it can prove the single-producer/single-consumer
// topology an SPSC ring requires.
const (
	QueueTwoLock  = queue.KindTwoLock
	QueueLockFree = queue.KindLockFree
	QueueRing     = queue.KindRing
	QueueSPSC     = queue.KindSPSC
)

// DuplexHandler is the server endpoint of a full-duplex virtual
// connection — the thread-per-client server architecture Section 2.1
// sketches as the alternative to the shared receive queue; its client
// endpoint is a plain *Client. Obtain pairs from System.DuplexPair
// (requires Options.Duplex).
type DuplexHandler = core.DuplexHandler

// BlockPool is the offset-addressed slab arena storing the
// variable-sized components fixed-size messages reference (Section
// 2.1): size-classed blocks under lock-free free lists, allocatable
// from any process mapping the segment. Obtain one from System.Blocks
// (requires Options.BlockSlots); prefer the lease discipline below to
// raw Alloc/Free + Msg.SetBlock.
type BlockPool = shm.BlockPool

// BlockRef is a position-independent reference into a BlockPool.
type BlockRef = shm.BlockRef

// BlockClassStats is one size class's point-in-time view (capacity,
// free blocks, fallback and exhaustion counters), from BlockPool.Stats
// — the backpressure signal for sizing Options.BlockSlots.
type BlockClassStats = shm.BlockClassStats

// Payload is a leased view of a shared-memory block — the zero-copy
// path for variable-size message bodies. Exactly one endpoint holds a
// block's lease at any instant:
//
//	p, err := cl.AllocPayload(len(body))   // client leases a block
//	copy(p.Bytes(), body)                  // fill in place
//	ans, rp, err := cl.SendPayload(ctx, ulipc.Msg{Op: ulipc.OpWork}, p)
//	// the request lease rode the message; rp (if non-nil) is the
//	// reply's payload, now leased to this client
//	... use rp.Bytes() ...
//	rp.Release()
//
// Server side, inside a ServeCtx work callback:
//
//	p, err := srv.Payload(*m) // claim the request's payload
//	... read or rewrite p.Bytes() in place ...
//	m.AttachPayload(p)        // the auto-reply carries the lease back
//
// Payload bytes never cross a queue — only the 32-bit reference does.
// If an endpoint dies mid-lease, the recovery sweep returns its blocks
// to the pool; a receiver that loses that race gets ErrPayloadLost.
type Payload = core.Payload

// Sentinel errors of the payload lease paths.
var (
	// ErrNoBlocks: the system was built without a payload arena
	// (Options.BlockSlots == 0 / SegConfig.Blocks == 0).
	ErrNoBlocks = core.ErrNoBlocks
	// ErrBlocksExhausted: every size class that fits the request is
	// empty — backpressure, exactly like a full queue.
	ErrBlocksExhausted = core.ErrBlocksExhausted
	// ErrNoPayload: the message carries no payload reference.
	ErrNoPayload = core.ErrNoPayload
	// ErrPayloadLost: the payload's previous holder died and the
	// recovery sweep reclaimed the block before the receiver could
	// claim it; the bytes are gone.
	ErrPayloadLost = core.ErrPayloadLost
)

// PoolWorker is one server thread of a worker pool ("multiple server
// threads" on one shared queue, Section 2.1). The pool replaces the
// single awake flag — provably broken for more than one sleeping worker,
// see internal/protomodel — with a model-checked counted-waiters wake
// discipline. Obtain workers from System.WorkerPool and their clients,
// plain *Client handles, from System.PoolClient.
type PoolWorker = core.PoolWorker

// Conn is a dynamically managed client connection: System.ConnectCtx
// claims a free reply-queue slot and performs the connect handshake;
// Conn.CloseCtx disconnects and releases the slot for reuse, so a
// long-running server serves arbitrarily many short-lived clients over
// a bounded shared segment.
type Conn = livebind.Conn

// Cross-process transport: the same Send/Receive/Reply protocols over
// a file- or memfd-backed shared-memory segment, with futex-backed
// semaphores (a portable polling fallback builds with -tags nofutex)
// and a process-granular lifetable, so peers survive each other's
// SIGKILL with ErrPeerDead instead of a hang. One process creates the
// segment and attaches the server; other processes map the same
// segment — by inherited descriptor or by path — and attach clients:
//
//	// parent / server process
//	seg, f, err := ulipc.CreateMemfdSeg("app", ulipc.SegConfig{Clients: 4})
//	srv, err := ulipc.AttachProcServer(seg, ulipc.ProcOptions{Alg: ulipc.BSW})
//	go srv.ServeCtx(ctx, nil)
//	// pass f to children via exec.Cmd.ExtraFiles (it becomes their fd 3)
//
//	// child / client process
//	seg, err := ulipc.MapFDSeg(3)
//	cl, err := ulipc.AttachProcClient(seg, 0, ulipc.ProcOptions{Alg: ulipc.BSW})
//	reply, err := cl.SendCtx(ctx, ulipc.Msg{Op: ulipc.OpEcho, Val: 42})
//
// See DESIGN.md §12 for the segment ABI, the futex rendezvous, and the
// peer-death recovery doctrine.
type (
	Seg         = shm.Seg
	SegConfig   = shm.SegConfig
	ProcOptions = livebind.ProcOptions
	ProcSystem  = livebind.ProcSystem
	ProcServer  = livebind.ProcServer
	ProcClient  = livebind.ProcClient
)

// FutexBackend names the sleep/wake implementation this binary was
// built with: "futex" (Linux FUTEX_WAIT/FUTEX_WAKE) or "poll" (the
// portable fallback, forced with -tags nofutex).
const FutexBackend = livebind.FutexBackend

// Segment constructors. Create* initialise a fresh segment; Map*/Open*
// attach to an existing one (validating magic, version and geometry,
// with the typed Err* sentinels below wrapped in any failure). On
// platforms without a mapping backend they return ErrMapUnsupported.
func CreateFileSeg(path string, cfg SegConfig) (*Seg, error) { return shm.CreateFileSeg(path, cfg) }

// CreateMemfdSeg creates an anonymous memory-backed segment; pass the
// returned file to child processes via exec.Cmd.ExtraFiles.
func CreateMemfdSeg(name string, cfg SegConfig) (*Seg, *os.File, error) {
	return shm.CreateMemfdSeg(name, cfg)
}

// MapFileSeg maps an existing segment file created by CreateFileSeg.
func MapFileSeg(path string) (*Seg, error) { return shm.MapFileSeg(path) }

// MapFDSeg maps a segment from an inherited file descriptor
// (ExtraFiles[0] is fd 3 in the child).
func MapFDSeg(fd uintptr) (*Seg, error) { return shm.MapFDSeg(fd) }

// Mapping sentinels, for errors.Is on the Map*/Create* paths.
var (
	// ErrMapUnsupported: this platform has no file-mapping backend.
	ErrMapUnsupported = shm.ErrMapUnsupported
	// ErrShortSegment: the file is smaller than its header claims.
	ErrShortSegment = shm.ErrShortSegment
	// ErrBadMagic: the file is not a ulipc segment.
	ErrBadMagic = shm.ErrBadMagic
	// ErrVersionMismatch: the segment was built by an incompatible
	// layout version of this library.
	ErrVersionMismatch = shm.ErrVersionMismatch
	// ErrBadGeometry: the header's client/ring/node counts are
	// inconsistent with the segment size.
	ErrBadGeometry = shm.ErrBadGeometry
	// ErrMapped / ErrNotMapped: double-map or unmap-without-map misuse.
	ErrMapped    = shm.ErrMapped
	ErrNotMapped = shm.ErrNotMapped
)

// AttachProcServer claims the segment's server slot and returns the
// serving handle; there can be only one live server per segment.
func AttachProcServer(seg *Seg, opts ProcOptions) (*ProcServer, error) {
	return livebind.AttachProcServer(seg, opts)
}

// AttachProcClient claims client slot id (in [0, SegConfig.Clients))
// and returns the sending handle.
func AttachProcClient(seg *Seg, id int, opts ProcOptions) (*ProcClient, error) {
	return livebind.AttachProcClient(seg, id, opts)
}
