package livebind

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/fault"
	"ulipc/internal/metrics"
	"ulipc/internal/obs"
	"ulipc/internal/queue"
	"ulipc/internal/shm"
)

// Options configures a live IPC system (one server, n client slots).
type Options struct {
	// Alg is the sleep/wake-up protocol. BSA hands the spin budget and
	// the wake throttle to an online controller per handle (core.Tuner),
	// so it rejects a hand-set MaxSpin or Throttle with ErrBadTuning.
	Alg       core.Algorithm
	MaxSpin   int        // BSLS MAX_SPIN (core.DefaultMaxSpin if zero)
	Clients   int        // number of client slots (reply queues)
	QueueCap  int        // per-queue capacity; default 64
	QueueKind queue.Kind // shared receive queue; zero = MPMC ring, KindTwoLock for crashpoints/lock reclaim
	SpinIters int        // >0: multiprocessor busy_wait flavour
	Throttle  int        // server wake throttle (0 = unlimited)

	// MPMCReplies builds the per-client channels (reply queues, and the
	// client->server queues in Duplex mode) as QueueKind queues. false,
	// the default, builds them as SPSC rings: each has exactly one
	// producer (the server, or the per-connection duplex peer) and one
	// consumer, so the padded Lamport ring with cached indices applies
	// and the hot path does no CAS and no cross-core loads. System
	// enforces that topology: handle constructors fail (or panic, for
	// the error-less Server) on any acquisition that would attach a
	// second producer to an SPSC channel, and WorkerPool — whose workers
	// all produce into every reply queue — rebuilds the SPSC channels as
	// QueueKind queues before any handle exists. A server group's reply
	// rings are SPSC by construction, so Shards rejects MPMCReplies.
	MPMCReplies bool

	// SleepScale compresses the queue-full sleep(1); 0 keeps the paper's
	// full-second UNIX semantics.
	SleepScale time.Duration

	// BlockSlots, when positive, attaches a shared block pool for
	// variable-sized message components (Section 2.1), with that many
	// slots per size class.
	BlockSlots int

	// Duplex additionally wires a client->server queue per client so
	// the thread-per-client architecture (DuplexPair) can be used.
	Duplex bool

	Metrics *metrics.Set // optional; created if nil

	// Observer, when non-nil, attaches per-protocol phase-latency
	// histograms (and, if configured with a RecorderCap, a flight
	// recorder) to every handle the system builds. nil keeps the legacy
	// fast path: handles carry a zero obs.Hook, whose every method is a
	// single nil-check.
	Observer *obs.Observer

	// Faults, when non-nil, threads the injector's per-actor hooks
	// through every handle the system builds: queue critical sections
	// gain crashpoints, semaphore Vs may be dropped/duplicated/delayed.
	// nil keeps the zero hook (one nil-check) on every path. Pair it
	// with Recovery so the injected faults are survivable.
	Faults *fault.Injector

	// Recovery, when non-nil, starts the peer-death sweeper (lifetable,
	// robust-lock reclaim, orphan drain, ErrPeerDead delivery).
	Recovery *RecoveryOptions

	// Shards, when > 0, builds a server group instead of a single
	// server: that many shards partitioning the clients, client i served
	// by shard i mod Shards alone, over its own SPSC request lane and
	// reply ring (see group.go). Shards may not exceed Clients, since a
	// shard without clients would serve nothing. The group topology
	// replaces the shared receive queue outright, so it composes with
	// neither Duplex, WorkerPool, Throttle, nor MPMCReplies.
	// NewSystemGroup sets it.
	Shards int

	// Admission configures overload admission control: a request-queue
	// high-water mark past which client sends fast-reject with
	// core.ErrOverload and a client retry budget bounding queue-full
	// retry rounds. The zero value keeps the system fully open — no
	// depth checks, no budget — at zero cost on the send path.
	Admission Admission
}

// Admission is the overload-doctrine configuration (DESIGN.md §14).
// Every field is opt-in: a zero field disables that mechanism.
type Admission struct {
	// HighWater, when > 0, is the request-queue depth at which client
	// sends stop enqueueing and fail fast with core.ErrOverload (a
	// plain Send returns the OpShutdown marker instead). The connect
	// and disconnect handshakes are always admitted.
	// On a sharded system the depth consulted is the client's home
	// shard's lane depth, the only place its requests go.
	HighWater int

	// RetryCap, when > 0, bounds queue-full retry rounds with a token
	// bucket of that capacity per client handle: each backoff nap
	// spends a token, each successful enqueue earns retryRefill back
	// (ten successes buy one retry), and a dry bucket turns the retry
	// into core.ErrOverload. The handshakes spend no tokens. Zero
	// keeps the unbounded retry.
	RetryCap float64
}

// retryRefill is the retry budget a successful send earns back.
const retryRefill = 0.1

// Option is a functional setting applied by NewSystem on top of the
// Options struct. Every knob is an Options field; WithHistograms is the
// one Option left.
type Option func(*Options)

// WithHistograms attaches a fresh observer with per-protocol phase
// histograms and no flight recorder — the cheapest always-on
// configuration (see Options.Observer).
func WithHistograms() Option {
	return func(o *Options) { o.Observer = obs.New(obs.Config{}) }
}

// NewSystemGroup builds a sharded system: shards server shards
// partitioning the clients, client i served by shard i mod shards
// alone. Equivalent to NewSystem with Options.Shards set to shards.
// shards must be at least 1 — a zero count is rejected rather than
// silently degrading to an unsharded system (callers wanting that
// should use NewSystem directly) — and at most opts.Clients.
func NewSystemGroup(shards int, opts Options, extra ...Option) (*System, error) {
	if shards < 1 {
		return nil, fmt.Errorf("%w: NewSystemGroup needs at least 1 shard, got %d", ErrBadOption, shards)
	}
	opts.Shards = shards
	return NewSystem(opts, extra...)
}

// validate rejects nonsensical configurations with typed errors and
// fills defaults.
func (o *Options) validate() error {
	if o.Clients < 1 {
		return fmt.Errorf("%w: need at least 1 client, got %d", ErrBadClients, o.Clients)
	}
	if o.QueueCap < 0 {
		return fmt.Errorf("%w: negative QueueCap %d", ErrBadOption, o.QueueCap)
	}
	if o.MaxSpin < 0 {
		return fmt.Errorf("%w: negative MaxSpin %d", ErrBadOption, o.MaxSpin)
	}
	if o.Throttle < 0 {
		return fmt.Errorf("%w: negative Throttle %d", ErrBadOption, o.Throttle)
	}
	if o.SpinIters < 0 {
		return fmt.Errorf("%w: negative SpinIters %d", ErrBadOption, o.SpinIters)
	}
	if o.BlockSlots < 0 {
		return fmt.Errorf("%w: negative BlockSlots %d", ErrBadOption, o.BlockSlots)
	}
	if !core.ValidAlgorithm(o.Alg) {
		return fmt.Errorf("%w: unknown algorithm %d", ErrBadOption, o.Alg)
	}
	// BSA's controller owns the spin budget and replaces the wake
	// throttle, so the hand-set knobs contradict it.
	if o.Alg == core.BSA {
		if o.MaxSpin > 0 {
			return fmt.Errorf("%w: BSA and a fixed MaxSpin (%d) are mutually exclusive — the controller owns the spin budget", ErrBadTuning, o.MaxSpin)
		}
		if o.Throttle > 0 {
			return fmt.Errorf("%w: BSA and a wake Throttle (%d) are mutually exclusive — the controller's oversubscription backoff replaces it", ErrBadTuning, o.Throttle)
		}
	}
	if o.QueueKind == queue.KindSPSC {
		return fmt.Errorf("%w: QueueKind cannot be KindSPSC: the shared receive queue has one producer per client; the per-client channels are SPSC rings unless MPMCReplies is set", ErrSPSCTopology)
	}
	if o.Shards < 0 {
		return fmt.Errorf("%w: negative Shards %d", ErrBadOption, o.Shards)
	}
	if o.Shards > 0 {
		if o.Duplex {
			return fmt.Errorf("%w: Shards and Duplex are mutually exclusive (a group has no per-connection handler threads)", ErrBadOption)
		}
		if o.Throttle > 0 {
			return fmt.Errorf("%w: Throttle applies to the single-server wake path, not a server group", ErrBadOption)
		}
		if o.MPMCReplies {
			return fmt.Errorf("%w: a server group's reply rings are structurally SPSC; MPMCReplies cannot override them", ErrSPSCTopology)
		}
		if o.Shards > o.Clients {
			return fmt.Errorf("%w: %d shards for %d clients would leave a shard with no clients to serve", ErrBadOption, o.Shards, o.Clients)
		}
	}
	if o.Admission.HighWater < 0 {
		return fmt.Errorf("%w: negative Admission.HighWater %d", ErrBadOption, o.Admission.HighWater)
	}
	if o.Admission.RetryCap < 0 {
		return fmt.Errorf("%w: negative Admission.RetryCap %g", ErrBadOption, o.Admission.RetryCap)
	}
	if o.QueueCap == 0 {
		o.QueueCap = 64
	}
	return nil
}

// System wires a server and its clients over live channels. It is the
// top-level entry point of the library: create a System, run Server()
// in its own goroutine, and issue requests through the Client handles.
type System struct {
	opts    Options
	recv    *Channel // shared receive channel; nil in group mode
	grp     *group   // sharded topology; nil unless Options.Shards > 0
	replies []*Channel
	c2s     []*Channel // per-client request channels (Duplex only)
	sems    []actorSem
	blocks  *shm.BlockPool
	ms      *metrics.Set
	obs     *obs.Observer // nil unless Options.Observer was set

	connMu sync.Mutex
	conns  connPool

	// Fault injection and recovery (nil when not configured).
	inj      *fault.Injector
	rec      *recovery
	actorSeq atomic.Int32 // actor id allocator

	// BSA controllers, one per handle, registered as handles are built
	// so the exporters can read every live budget gauge.
	tunMu  sync.Mutex
	tuners []TunerSample

	// Shutdown bookkeeping: worker-pool coordinators, whose stop flag
	// must rise before the pool semaphore closes. The once/err pair is
	// the shutdown latch: the first Shutdown call runs the five phases
	// inside the Once, so concurrent and later calls block until that
	// run finishes and then return its stored result.
	downMu   sync.Mutex
	pools    []*core.PoolCoordinator
	downOnce sync.Once
	downErr  error

	// SPSC topology bookkeeping: which producer endpoints have been
	// issued. Only consulted while the per-client channels are SPSC.
	topoMu       sync.Mutex
	replySPSC    bool   // per-client channels are SPSC rings
	serverTaken  bool   // Server() issued (produces into every reply queue)
	duplexTaken  []bool // DuplexPair(i) issued
	replyHandles bool   // any handle on the per-client channels issued
}

// NewSystem builds the shared state for one server and opts.Clients
// clients. Options (WithHistograms) are applied on top of the struct
// before validation; configuration errors wrap the typed sentinels
// (ErrBadClients, ErrBadOption, ErrSPSCTopology, ErrBadTuning).
func NewSystem(opts Options, extra ...Option) (*System, error) {
	for _, apply := range extra {
		apply(&opts)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewSet()
	}
	s := &System{opts: opts, ms: opts.Metrics, obs: opts.Observer, duplexTaken: make([]bool, opts.Clients)}

	if opts.Shards > 0 {
		// Server group: a ring partition replaces the shared receive
		// queue and the scalar reply channels (see group.go).
		if err := s.buildGroup(); err != nil {
			return nil, err
		}
	} else {
		s.replySPSC = !opts.MPMCReplies
		newReply := func() (*Channel, error) {
			if s.replySPSC {
				return newSPSCChannel(opts.QueueCap)
			}
			return NewChannel(opts.QueueKind, opts.QueueCap)
		}

		var err error
		if s.recv, err = NewChannel(opts.QueueKind, opts.QueueCap); err != nil {
			return nil, err
		}
		s.addSem(s.recv)
		for i := 0; i < opts.Clients; i++ {
			ch, err := newReply()
			if err != nil {
				return nil, err
			}
			s.addSem(ch)
			s.replies = append(s.replies, ch)
		}
		if opts.Duplex {
			for i := 0; i < opts.Clients; i++ {
				ch, err := newReply()
				if err != nil {
					return nil, err
				}
				s.addSem(ch)
				s.c2s = append(s.c2s, ch)
			}
		}
	}
	if opts.BlockSlots > 0 {
		pool, err := shm.NewDefaultBlockPool(opts.BlockSlots)
		if err != nil {
			return nil, err
		}
		s.blocks = pool
	}
	s.inj = opts.Faults
	if opts.Recovery != nil {
		s.rec = newRecovery(s, *opts.Recovery)
		go s.rec.run()
	}
	return s, nil
}

// Blocks returns the shared block pool for variable-sized message
// components, or nil if Options.BlockSlots was zero.
func (s *System) Blocks() *shm.BlockPool { return s.blocks }

// blockSource adapts the shared slab arena to one handle's
// core.BlockStore, counting an exhausted arena into the handle's
// metrics. Every allocation goes straight to the pool; Free, Get,
// Lease, Gen, ClaimGen and MaxBlock are the pool's own.
type blockSource struct {
	*shm.BlockPool
	m *metrics.Proc
}

// Alloc reports an exhausted arena (BlockFails) to the caller's flow
// control as a failed allocation.
func (b *blockSource) Alloc(n int) (ref uint32, buf []byte, ok bool) {
	ref, buf, ok = b.BlockPool.Alloc(n)
	if !ok && b.m != nil {
		b.m.BlockFails.Add(1)
	}
	return ref, buf, ok
}

// blockStore builds the payload source for a handle owned by actor a,
// or returns nil when the system has no arena. The handle's lease owner
// is the actor id, so the sweeper can attribute a dead actor's leases.
func (s *System) blockStore(a *Actor) core.BlockStore {
	if s.blocks == nil {
		return nil
	}
	return &blockSource{BlockPool: s.blocks, m: a.M}
}

// Shutdown gracefully tears the system down:
//
//  1. the request-bearing channels (receive queue, duplex c2s queues)
//     start REFUSING new messages — producers observe the state and
//     fail fast with core.ErrShutdown, while servers keep consuming;
//  2. Shutdown waits for the in-flight requests to drain (bounded by
//     ctx: on expiry it proceeds to teardown and returns ctx.Err());
//  3. worker pools are stopped;
//  4. every channel is closed: remaining producers and consumers are
//     unblocked — parked waiters are released by the semaphore close —
//     and the *Ctx paths surface core.ErrShutdown (legacy paths return
//     the OpShutdown marker message);
//  5. when a recovery sweeper is attached, the sweeper is halted after
//     one final synchronous sweep.
//
// Shutdown is idempotent and concurrency-safe: the first call runs the
// phases; concurrent and later calls wait for that run to finish and
// return the same result (so every caller observes a fully torn-down
// system, and a drain-deadline error is not swallowed by a racing
// second call).
func (s *System) Shutdown(ctx context.Context) error {
	s.downOnce.Do(func() { s.downErr = s.shutdownPhases(ctx) })
	return s.downErr
}

// shutdownPhases is the body of the first Shutdown call; see Shutdown
// for the phase contract.
func (s *System) shutdownPhases(ctx context.Context) error {
	// Phase 1: refuse new requests; replies stay open so in-flight
	// requests still get answered.
	s.notePhase(1)
	for _, ch := range s.requestChannels() {
		ch.Refuse()
	}

	// Phase 2: drain-wait.
	s.notePhase(2)
	var derr error
	for !s.requestsDrained() {
		if err := ctx.Err(); err != nil {
			derr = err
			break
		}
		time.Sleep(50 * time.Microsecond)
	}

	// Phase 3: stop worker pools before their semaphore closes, so a
	// worker woken by the close observes the stop flag, not a spurious
	// wake.
	s.notePhase(3)
	s.downMu.Lock()
	pools := append([]*core.PoolCoordinator(nil), s.pools...)
	s.downMu.Unlock()
	for _, pc := range pools {
		pc.Stop()
	}

	// Phase 4: close every channel, releasing all parked waiters. If the
	// drain deadline expired, discard the undelivered requests first so
	// servers exit on their next dequeue instead of processing stale
	// work against closed reply channels.
	s.notePhase(4)
	reqs := s.requestChannels()
	if derr != nil {
		for _, ch := range reqs {
			queue.Drain(ch.q)
		}
	}
	for _, ch := range reqs {
		ch.CloseDown()
	}
	for _, ch := range s.replies {
		ch.CloseDown()
	}

	// Phase 5: retire the recovery sweeper: one final synchronous sweep
	// reclaims anything a crashed actor still held before the
	// background goroutine exits.
	s.notePhase(5)
	if s.rec != nil {
		s.rec.halt()
		s.rec.sweep()
	}
	return derr
}

// notePhase records a shutdown-phase transition on the flight recorder
// (arg: phase 1..5, actor -1 = the system itself). No-op without a
// recorder.
func (s *System) notePhase(phase int64) {
	s.obs.Recorder().Note(obs.EvShutdown, -1, phase)
}

// requestChannels returns every request-bearing channel: the shard
// channels in group mode, otherwise the shared receive queue plus any
// duplex c2s queues.
func (s *System) requestChannels() []*Channel {
	if s.grp != nil {
		return s.grp.recvs
	}
	return append([]*Channel{s.recv}, s.c2s...)
}

// requestsDrained reports whether every request-bearing queue is empty.
func (s *System) requestsDrained() bool {
	for _, ch := range s.requestChannels() {
		if !ch.q.Empty() {
			return false
		}
	}
	return true
}

// DuplexPair returns the two endpoints of client i's full-duplex virtual
// connection — the thread-per-client architecture of Section 2.1. The
// handler is meant to run on its own goroutine (the "server thread").
// Requires Options.Duplex.
//
// With SPSC per-client channels (the default), each pair may be taken
// once, and not after Server() — either would attach a second producer
// to the reply ring. Violations wrap ErrSPSCTopology.
func (s *System) DuplexPair(i int) (*core.Client, *core.DuplexHandler, error) {
	if !s.opts.Duplex {
		return nil, nil, fmt.Errorf("livebind: system built without Options.Duplex")
	}
	if i < 0 || i >= len(s.c2s) {
		return nil, nil, fmt.Errorf("livebind: client index %d out of range [0,%d)", i, len(s.c2s))
	}
	s.topoMu.Lock()
	if s.replySPSC {
		if s.serverTaken {
			s.topoMu.Unlock()
			return nil, nil, fmt.Errorf("%w: reply channel %d already has a producer (Server); set Options.MPMCReplies to mix modes", ErrSPSCTopology, i)
		}
		if s.duplexTaken[i] {
			s.topoMu.Unlock()
			return nil, nil, fmt.Errorf("%w: duplex pair %d already taken; set Options.MPMCReplies to share it", ErrSPSCTopology, i)
		}
	}
	s.duplexTaken[i] = true
	s.replyHandles = true
	s.topoMu.Unlock()

	ca := s.newActor(fmt.Sprintf("client%d", i))
	cl := &core.Client{
		ID:      int32(i),
		Alg:     s.opts.Alg,
		MaxSpin: s.opts.MaxSpin,
		Tuner:   s.newTuner(fmt.Sprintf("client%d", i), ca),
		Srv:     NewPort(s.c2s[i]).bindActor(ca),
		Rcv:     NewPort(s.replies[i]).bindActor(ca),
		A:       ca,
		M:       ca.M,
		Obs:     ca.Obs,
	}
	s.registerActor(ca, []*Channel{s.replies[i]}, []*Channel{s.c2s[i]})
	ha := s.newActor(fmt.Sprintf("server%d", i))
	h := &core.DuplexHandler{
		Alg:     s.opts.Alg,
		MaxSpin: s.opts.MaxSpin,
		Tuner:   s.newTuner(fmt.Sprintf("server%d", i), ha),
		Rcv:     NewPort(s.c2s[i]).bindActor(ha),
		Snd:     NewPort(s.replies[i]).bindActor(ha),
		A:       ha,
		M:       ha.M,
		Obs:     ha.Obs,
	}
	s.registerActor(ha, []*Channel{s.c2s[i]}, []*Channel{s.replies[i]})
	return cl, h, nil
}

func (s *System) addSem(c *Channel) {
	c.id = core.SemID(len(s.sems))
	s.sems = append(s.sems, c.sem)
}

// Metrics returns the system's metrics set.
func (s *System) Metrics() *metrics.Set { return s.ms }

// ReceiveChannel exposes the server receive channel (diagnostics).
func (s *System) ReceiveChannel() *Channel { return s.recv }

// ReplyChannel exposes a client's reply channel (diagnostics).
func (s *System) ReplyChannel(i int) *Channel { return s.replies[i] }

func (s *System) newActor(name string) *Actor {
	a := &Actor{
		ID:         s.actorSeq.Add(1) - 1,
		sems:       s.sems,
		SpinIters:  s.opts.SpinIters,
		SleepScale: s.opts.SleepScale,
		M:          s.ms.NewProc(name),
	}
	if s.obs != nil {
		a.Obs = s.obs.Hook(int(s.opts.Alg), s.obs.RegisterActor(name))
	}
	if s.inj != nil {
		a.FH = s.inj.Hook(a.ID)
	}
	return a
}

// newTuner builds and registers the BSA controller for one handle
// (attaching it to the handle's actor so queue-full naps stretch with
// the oversubscription backoff), or returns nil for the fixed-budget
// protocols — handles treat a nil Tuner as "build one lazily", so the
// nil is harmless even if Alg were BSA.
func (s *System) newTuner(name string, a *Actor) *core.Tuner {
	if s.opts.Alg != core.BSA {
		return nil
	}
	t := core.NewTuner(core.TunerConfig{})
	a.Tun = t
	s.tunMu.Lock()
	s.tuners = append(s.tuners, TunerSample{Name: name, T: t})
	s.tunMu.Unlock()
	return t
}

// TunerSample pairs one handle's name with its live BSA controller.
type TunerSample struct {
	Name string
	T    *core.Tuner
}

// Tuners returns the live BSA controllers in handle-creation order
// (empty unless the system runs BSA). The exporters read budgets and
// decision counters through these.
func (s *System) Tuners() []TunerSample {
	s.tunMu.Lock()
	defer s.tunMu.Unlock()
	return append([]TunerSample(nil), s.tuners...)
}

// TunerSnapshots reads every live controller's gauge and counters.
func (s *System) TunerSnapshots() map[string]core.TunerSnapshot {
	ts := s.Tuners()
	if len(ts) == 0 {
		return nil
	}
	out := make(map[string]core.TunerSnapshot, len(ts))
	for _, t := range ts {
		out[t.Name] = t.T.Snapshot()
	}
	return out
}

// registerActor files an actor's channel topology with the recovery
// sweeper; a no-op when the system was built without Options.Recovery.
func (s *System) registerActor(a *Actor, consumes, produces []*Channel) {
	if s.rec != nil {
		s.rec.register(a, consumes, produces)
	}
}

// WorkerPool builds a pool of n server workers sharing the receive
// queue (the "multiple server threads" of Section 2.1, using the
// model-checked counted-waiters wake discipline) plus the matching
// client constructor. Run each worker's Serve on its own goroutine and
// issue requests through the Client handles PoolClient builds.
func (s *System) WorkerPool(n int) ([]*core.PoolWorker, error) {
	if s.grp != nil {
		return nil, fmt.Errorf("%w: WorkerPool unavailable on a sharded system (shards are the parallel servers; use ShardServer)", ErrBadOption)
	}
	if n < 1 {
		return nil, fmt.Errorf("livebind: worker pool needs >= 1 worker, got %d", n)
	}
	// Every worker produces into every reply queue, so SPSC reply rings
	// are off the table: rebuild them with the system's QueueKind before
	// any endpoint exists.
	s.topoMu.Lock()
	if s.replySPSC {
		if s.replyHandles {
			s.topoMu.Unlock()
			return nil, fmt.Errorf("%w: worker pool must be built before any client/server/duplex handle (the SPSC reply queues are rebuilt as %s)", ErrSPSCTopology, s.opts.QueueKind)
		}
		for _, ch := range s.replies {
			q, err := queue.New(s.opts.QueueKind, s.opts.QueueCap)
			if err != nil {
				s.topoMu.Unlock()
				return nil, err
			}
			ch.q, ch.kind = q, s.opts.QueueKind
		}
		s.replySPSC = false
	}
	s.replyHandles = true
	s.topoMu.Unlock()

	coord := &core.PoolCoordinator{Workers: n}
	s.downMu.Lock()
	s.pools = append(s.pools, coord)
	s.downMu.Unlock()
	workers := make([]*core.PoolWorker, n)
	for w := 0; w < n; w++ {
		a := s.newActor(fmt.Sprintf("server%d", w))
		replies := make([]core.Port, len(s.replies))
		for i, ch := range s.replies {
			replies[i] = NewPort(ch).bindActor(a)
		}
		s.registerActor(a, []*Channel{s.recv}, s.replies)
		workers[w] = &core.PoolWorker{
			Alg:     s.opts.Alg,
			MaxSpin: s.opts.MaxSpin,
			Tuner:   s.newTuner(fmt.Sprintf("server%d", w), a),
			Rcv:     NewPoolPort(s.recv),
			Replies: replies,
			A:       a,
			C:       coord,
			M:       a.M,
			Obs:     a.Obs,
		}
	}
	return workers, nil
}

// PoolClient builds the client handle for slot i against a worker pool
// built with WorkerPool (which must be built first: it converts the
// reply queues from the SPSC default to a multi-producer kind). The
// handle's request port wakes the pool by claiming a registered waiter.
func (s *System) PoolClient(i int) (*core.Client, error) {
	if s.grp != nil {
		return nil, fmt.Errorf("%w: PoolClient unavailable on a sharded system; use Client", ErrBadOption)
	}
	if i < 0 || i >= len(s.replies) {
		return nil, fmt.Errorf("livebind: client index %d out of range [0,%d)", i, len(s.replies))
	}
	s.topoMu.Lock()
	if s.replySPSC {
		s.topoMu.Unlock()
		return nil, fmt.Errorf("%w: build the WorkerPool before its PoolClients (reply queue %d is still an SPSC ring)", ErrSPSCTopology, i)
	}
	s.replyHandles = true
	s.topoMu.Unlock()
	a := s.newActor(fmt.Sprintf("client%d", i))
	s.registerActor(a, []*Channel{s.replies[i]}, []*Channel{s.recv})
	return &core.Client{
		ID:      int32(i),
		Alg:     s.opts.Alg,
		MaxSpin: s.opts.MaxSpin,
		Tuner:   s.newTuner(fmt.Sprintf("client%d", i), a),
		Srv:     NewPoolPort(s.recv),
		Rcv:     NewPort(s.replies[i]).bindActor(a),
		A:       a,
		M:       a.M,
		Obs:     a.Obs,
	}, nil
}

// Server builds the server-side handle. Run its Serve loop (or drive
// Receive/Reply directly) on a dedicated goroutine.
//
// With SPSC reply channels (the default) the server handle is the
// single producer of every reply ring, so it may be built only once and
// not combined with DuplexPair; violations panic with an error wrapping
// ErrSPSCTopology (this constructor predates the SPSC default and
// returns no error). Set Options.MPMCReplies to lift the restriction.
func (s *System) Server() *core.Server {
	if s.grp != nil {
		panic(fmt.Errorf("%w: Server() unavailable on a sharded system; use ShardServer", ErrBadOption))
	}
	s.topoMu.Lock()
	if s.replySPSC {
		if s.serverTaken {
			s.topoMu.Unlock()
			panic(fmt.Errorf("%w: Server() taken twice with SPSC reply channels; set Options.MPMCReplies", ErrSPSCTopology))
		}
		for i, taken := range s.duplexTaken {
			if taken {
				s.topoMu.Unlock()
				panic(fmt.Errorf("%w: reply channel %d already has a producer (DuplexPair); set Options.MPMCReplies", ErrSPSCTopology, i))
			}
		}
	}
	s.serverTaken = true
	s.replyHandles = true
	s.topoMu.Unlock()

	a := s.newActor("server")
	replies := make([]core.Port, len(s.replies))
	for i, ch := range s.replies {
		replies[i] = NewPort(ch).bindActor(a)
	}
	s.registerActor(a, []*Channel{s.recv}, s.replies)
	return &core.Server{
		Alg:      s.opts.Alg,
		MaxSpin:  s.opts.MaxSpin,
		Tuner:    s.newTuner("server", a),
		Rcv:      NewPort(s.recv).bindActor(a),
		Replies:  replies,
		A:        a,
		M:        a.M,
		Obs:      a.Obs,
		Throttle: s.opts.Throttle,
		Blocks:   s.blockStore(a),
		Owner:    uint32(a.ID),
	}
}

// Client builds the handle for client slot i. Each handle is owned by a
// single goroutine. With SPSC reply channels (the default) there must
// also be at most one live handle per slot — System.Connect/Conn.Close
// manage that automatically for dynamic clients.
func (s *System) Client(i int) (*core.Client, error) {
	if i < 0 || i >= len(s.replies) {
		return nil, fmt.Errorf("livebind: client index %d out of range [0,%d)", i, len(s.replies))
	}
	if s.grp != nil {
		return s.groupClient(i)
	}
	s.topoMu.Lock()
	s.replyHandles = true
	s.topoMu.Unlock()
	a := s.newActor(fmt.Sprintf("client%d", i))
	s.registerActor(a, []*Channel{s.replies[i]}, []*Channel{s.recv})
	return &core.Client{
		ID:        int32(i),
		Alg:       s.opts.Alg,
		MaxSpin:   s.opts.MaxSpin,
		Tuner:     s.newTuner(fmt.Sprintf("client%d", i), a),
		Srv:       NewPort(s.recv).bindActor(a),
		Rcv:       NewPort(s.replies[i]).bindActor(a),
		A:         a,
		M:         a.M,
		Obs:       a.Obs,
		Blocks:    s.blockStore(a),
		Owner:     uint32(a.ID),
		HighWater: s.opts.Admission.HighWater,
		Budget:    s.retryBudget(),
	}, nil
}

// retryBudget builds one handle's retry token bucket, or nil when the
// admission configuration leaves retries unbounded. Each handle gets
// its own bucket (the handle is single-goroutine, so the bucket needs
// no synchronisation).
func (s *System) retryBudget() *core.RetryBudget {
	if s.opts.Admission.RetryCap <= 0 {
		return nil
	}
	return &core.RetryBudget{Cap: s.opts.Admission.RetryCap, Refill: retryRefill}
}
