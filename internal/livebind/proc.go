package livebind

import (
	"fmt"
	"os"
	"sync"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/metrics"
	"ulipc/internal/obs"
	"ulipc/internal/shm"
)

// Cross-process binding: core.Client/core.Server running over a mapped
// shm.Seg, with futex-backed semaphores (ProcSem) instead of the
// in-process Semaphore and a process-granular lifetable instead of the
// goroutine one.
//
// Topology. The segment carries one SPSC request lane and one SPSC
// reply lane per client. The server's receive endpoint round-robins
// over the request lanes (MPSC built from provably-SPSC parts — the
// same construction the sharded in-process System uses), so no
// cross-process lock exists anywhere on the message path: lanes are
// single-writer-cursor rings and the node pool is a lock-free Treiber
// stack. That is what makes SIGKILL survivable — there is no lock a
// dying process can be holding.
//
// Death doctrine. Every participant heartbeats its lifetable slot and
// runs a sweeper over the others' slots (pid probe + lease staleness).
// The first sweeper to CAS a slot Live→Dead executes the recovery —
// the words it writes live in the shared segment, so it does not
// matter which process wins:
//
//   - server died: the whole segment is dead. State goes SegDead and
//     every semaphore is poisoned, so every parked client unblocks and
//     surfaces core.ErrPeerDead through its port's PeerDead.
//   - a client died: its semaphore is poisoned, its reply lane (which
//     lost its only consumer) is drained back to the pool, and the
//     server receives one compensating V — the client may have died
//     between pushing a request and issuing its wake-up, which is the
//     Figure 4 race window made permanent.
//
// Refs a dead process held in-flight are unreachable until the
// post-mortem audit (shm.SegView.Reclaim) runs with exclusive access.

// ServerSlot is the server's lifetable slot; client i occupies 1+i.
const ServerSlot = 0

// ProcOptions configures one participant's attachment to a segment.
type ProcOptions struct {
	Alg     core.Algorithm
	MaxSpin int

	// SpinIters/SleepScale mirror Actor: bounded spin vs yield for
	// busy_wait, and the compressed queue-full sleep.
	SpinIters  int
	SleepScale time.Duration

	// WaitSlice bounds each parked futex wait (DefaultWaitSlice if 0).
	WaitSlice time.Duration

	// HeartbeatEvery is the lifetable beat period (default 5ms).
	// SweepEvery is the peer-scan period (default 4 beats). Lease is
	// the heartbeat staleness that declares a pid-probe-alive process
	// dead anyway (default 60 sweeps; 0 disables lease detection).
	HeartbeatEvery time.Duration
	SweepEvery     time.Duration
	Lease          time.Duration

	// NoSweep disables peer-death detection (tests that want to stage
	// deaths by hand).
	NoSweep bool

	// M, when non-nil, receives the actor's counters and the sweeper's
	// recovery counters (PeerDeaths, WakeRescues, OrphanMsgs,
	// OrphanBlocks), the same block the in-process sweeper fills.
	M   *metrics.Proc
	Obs obs.Hook
}

func (o *ProcOptions) defaults() {
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 5 * time.Millisecond
	}
	if o.SweepEvery <= 0 {
		o.SweepEvery = 4 * o.HeartbeatEvery
	}
	if o.Lease == 0 {
		o.Lease = 60 * o.SweepEvery
	}
}

// ProcSystem is one process's attachment to a shared segment: its
// lifetable slot, its heartbeat/sweeper runner, and the semaphore table
// its actors index.
type ProcSystem struct {
	seg  *shm.Seg
	v    *shm.SegView
	sems []*ProcSem
	self int
	opts ProcOptions

	stop      chan struct{}
	done      sync.WaitGroup
	closeOnce sync.Once

	// Sweeper-local lease tracking: last observed beat per slot and
	// when it was observed. Only the runner goroutine touches these.
	lastBeat   []uint64
	lastBeatAt []time.Time
}

// attachProc claims a lifetable slot and starts the runner.
func attachProc(seg *shm.Seg, slot int, opts ProcOptions) (*ProcSystem, error) {
	opts.defaults()
	v, err := seg.View()
	if err != nil {
		return nil, err
	}
	switch v.Hdr.State.Load() {
	case shm.SegReady:
	case shm.SegDead:
		return nil, fmt.Errorf("livebind: attach to dead segment: %w", core.ErrPeerDead)
	default:
		return nil, fmt.Errorf("livebind: attach to segment in state %d: %w", v.Hdr.State.Load(), core.ErrShutdown)
	}
	if slot < 0 || slot >= len(v.Life) {
		return nil, fmt.Errorf("livebind: lifetable slot %d out of range [0,%d)", slot, len(v.Life))
	}
	ls := &v.Life[slot]
	if !ls.State.CompareAndSwap(shm.LifeFree, shm.LifeLive) {
		return nil, fmt.Errorf("livebind: lifetable slot %d already claimed (state %d)", slot, ls.State.Load())
	}
	ls.Pid.Store(uint32(os.Getpid()))
	ls.Beat.Add(1)

	s := &ProcSystem{
		seg: seg, v: v, self: slot, opts: opts,
		stop:       make(chan struct{}),
		lastBeat:   make([]uint64, len(v.Life)),
		lastBeatAt: make([]time.Time, len(v.Life)),
	}
	s.sems = make([]*ProcSem, len(v.Sems))
	for i := range s.sems {
		s.sems[i] = NewProcSem(&v.Sems[i], opts.WaitSlice)
	}
	s.done.Add(1)
	go s.run()
	return s, nil
}

// run is the heartbeat/sweeper loop.
func (s *ProcSystem) run() {
	defer s.done.Done()
	t := time.NewTicker(s.opts.HeartbeatEvery)
	defer t.Stop()
	nextSweep := time.Now().Add(s.opts.SweepEvery)
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			s.v.Life[s.self].Beat.Add(1)
			if !s.opts.NoSweep && now.After(nextSweep) {
				s.sweep(now)
				nextSweep = now.Add(s.opts.SweepEvery)
			}
		}
	}
}

// sweep scans the other lifetable slots for dead peers. Detection is
// two-pronged: a kill(pid, 0) probe (ESRCH means the process is gone)
// and a heartbeat lease (a pid that answers probes — pid reuse, or a
// livelocked runtime — but whose beat word has not moved for a full
// lease is dead for our purposes too).
func (s *ProcSystem) sweep(now time.Time) {
	for i := range s.v.Life {
		if i == s.self {
			continue
		}
		sl := &s.v.Life[i]
		if sl.State.Load() != shm.LifeLive {
			continue
		}
		beat := sl.Beat.Load()
		if beat != s.lastBeat[i] || s.lastBeatAt[i].IsZero() {
			s.lastBeat[i] = beat
			s.lastBeatAt[i] = now
		}
		dead := false
		if pid := sl.Pid.Load(); pid != 0 && !pidAlive(int(pid)) {
			dead = true
		}
		if !dead && s.opts.Lease > 0 && now.Sub(s.lastBeatAt[i]) > s.opts.Lease {
			dead = true
		}
		if dead && sl.State.CompareAndSwap(shm.LifeLive, shm.LifeDead) {
			s.onPeerDeath(i)
		}
	}
}

// onPeerDeath executes the recovery for a slot this sweeper won the
// Live→Dead CAS on. Everything it writes is segment state, so exactly
// one process performs the recovery and every process observes it.
// The recovery counters go to ProcOptions.M; the segment-wide Epoch
// and DeadSlot stay readable from View().Hdr.
func (s *ProcSystem) onPeerDeath(slot int) {
	m := s.opts.M
	if m == nil {
		m = new(metrics.Proc) // nobody reads the counts; recover anyway
	}
	m.PeerDeaths.Add(1)
	s.v.Hdr.Epoch.Add(1)
	s.v.Hdr.DeadSlot.CompareAndSwap(-1, int32(slot))
	if slot == ServerSlot {
		// The server is the segment: poison everything. Parked clients
		// unblock, see their port PeerDead, surface core.ErrPeerDead.
		s.v.Hdr.State.Store(shm.SegDead)
		for _, sem := range s.sems {
			sem.Poison()
		}
		return
	}
	// A client died. Its reply lane lost its only consumer — drain it
	// back to the pool (we are its consumer now; the server may still
	// push until it observes the refusing port, and whatever lands
	// after this drain is picked up by the post-mortem audit). Its
	// request lane keeps its live consumer (the server drains it
	// organically), so we must not touch it.
	client := slot - 1
	s.sems[slot].Poison()
	lane := s.v.ReplyLane(client)
	for {
		r, ok := lane.TryPop()
		if !ok {
			break
		}
		msg := s.v.Arena().Node(r).Msg()
		s.v.Pool.Free(r)
		m.OrphanMsgs.Add(1)
		// A drained reply may carry a payload lease that now has no
		// receiver: claim-free it.
		if s.v.Blocks != nil && core.DropPayload(s.v.Blocks, uint32(s.self), msg) {
			m.OrphanBlocks.Add(1)
		}
	}
	// Return whatever the dead client still held leased (blocks it had
	// allocated but not yet sent, or reply payloads it had claimed).
	if s.v.Blocks != nil {
		m.OrphanBlocks.Add(int64(s.v.Blocks.ReclaimOwner(uint32(slot))))
	}
	// The client may have died between enqueueing a request and issuing
	// its wake-up V — a permanently lost wake. One compensating V keeps
	// the server's token accounting conservative: at worst it is a
	// spurious wake-up, which the awake-flag protocol absorbs. Counted
	// before the V, so a server the rescue wakes already finds it
	// counted.
	m.WakeRescues.Add(1)
	if s.sems[ServerSlot].V() {
		s.opts.Obs.Note(obs.EvWake, int64(ServerSlot))
	}
}

// Close detaches: stops the runner, marks our slot Done, and — when we
// are the server — moves the segment to SegShutdown and poisons every
// semaphore so parked peers unblock. It does not unmap the segment;
// the Seg handle's owner does that.
func (s *ProcSystem) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.done.Wait()
		s.v.Life[s.self].State.CompareAndSwap(shm.LifeLive, shm.LifeDone)
		if s.self == ServerSlot {
			s.v.Hdr.State.CompareAndSwap(shm.SegReady, shm.SegShutdown)
			for _, sem := range s.sems {
				sem.Poison()
			}
		}
	})
}

// View exposes the segment view (post-mortem audits, tests).
func (s *ProcSystem) View() *shm.SegView { return s.v }

// SegDead reports whether the segment has been declared dead (server
// death observed by any sweeper).
func (s *ProcSystem) SegDead() bool { return s.v.Hdr.State.Load() == shm.SegDead }

// newActor builds this participant's actor over the futex semaphore
// table.
func (s *ProcSystem) newActor() *Actor {
	sems := make([]actorSem, len(s.sems))
	for i, sem := range s.sems {
		sems[i] = sem
	}
	return &Actor{
		sems:       sems,
		proc:       true,
		SpinIters:  s.opts.SpinIters,
		SleepScale: s.opts.SleepScale,
		M:          s.opts.M,
		Obs:        s.opts.Obs,
	}
}

// procPort is an endpoint over segment lanes; it implements core.Port.
// An enqueue endpoint has enq set; a dequeue endpoint has deq set (the
// server's receive endpoint holds every request lane and round-robins).
// slot/sem name the consumer's wake state, whichever side of the port
// this process is.
type procPort struct {
	v    *shm.SegView
	pool *shm.SegPool
	enq  *shm.Lane
	deq  []*shm.Lane
	slot *shm.SemSlot
	sem  core.SemID
	peer int // lifetable slot of the peer (-1: the server's many clients)
	rr   int
}

// TryEnqueue implements core.Port: allocate a node from the shared
// pool, write the message, publish the ref. A full lane or an exhausted
// pool is queue-full (the protocols sleep and retry).
func (p *procPort) TryEnqueue(m core.Msg) bool {
	ref, ok := p.pool.Alloc()
	if !ok {
		return false
	}
	p.v.Arena().Node(ref).SetMsg(m)
	if !p.enq.TryPush(ref) {
		p.pool.Free(ref)
		return false
	}
	return true
}

// TryDequeue implements core.Port, round-robinning over the endpoint's
// lanes so no client starves the server's receive loop.
func (p *procPort) TryDequeue() (core.Msg, bool) {
	n := len(p.deq)
	for k, i := 0, p.rr; k < n; k++ {
		r, ok := p.deq[i].TryPop()
		if i++; i == n {
			i = 0
		}
		if !ok {
			continue
		}
		p.rr = i
		m := p.v.Arena().Node(r).Msg()
		p.pool.Free(r)
		return m, true
	}
	return core.Msg{}, false
}

// TryEnqueueBatch implements core.Port (a lane has no vectored push).
func (p *procPort) TryEnqueueBatch(ms []core.Msg) int { return core.EnqueueEach(p, ms) }

// TryDequeueBatch implements core.Port (a lane has no vectored pop).
func (p *procPort) TryDequeueBatch(dst []core.Msg) int { return core.DequeueEach(p, dst) }

// Depth implements core.Port: a cross-process send admits everything.
func (p *procPort) Depth() int { return 0 }

// Empty implements core.Port (the BSLS poll).
func (p *procPort) Empty() bool {
	if p.deq == nil {
		return p.enq.Empty()
	}
	for _, l := range p.deq {
		if !l.Empty() {
			return false
		}
	}
	return true
}

// SetAwake implements core.Port.
func (p *procPort) SetAwake(v bool) {
	if v {
		p.slot.Awake.Store(1)
	} else {
		p.slot.Awake.Store(0)
	}
}

// TASAwake implements core.Port.
func (p *procPort) TASAwake() bool { return p.slot.Awake.Swap(1) != 0 }

// ClaimWake implements core.Port: the producer's test-and-set.
func (p *procPort) ClaimWake() bool { return !p.TASAwake() }

// Sem implements core.Port.
func (p *procPort) Sem() core.SemID { return p.sem }

func (p *procPort) peerDead() bool {
	return p.peer >= 0 && p.v.Life[p.peer].State.Load() == shm.LifeDead
}

// Refusing implements core.Port. Cross-process shutdown is
// single-phase (the segment flips straight to Shutdown/Dead), so
// Refusing and Closed coincide; a port whose specific peer died is
// refused even while the segment as a whole stays up.
func (p *procPort) Refusing() bool {
	return p.v.Hdr.State.Load() >= shm.SegShutdown || p.peerDead()
}

// Closed implements core.Port.
func (p *procPort) Closed() bool { return p.Refusing() }

// PeerDead implements core.Port.
func (p *procPort) PeerDead() bool {
	return p.v.Hdr.State.Load() == shm.SegDead || p.peerDead()
}

var _ core.Port = (*procPort)(nil)

// ProcServer is a core.Server attached to a segment, plus its
// participant state. Close detaches (and shuts the segment down).
type ProcServer struct {
	*core.Server
	Sys *ProcSystem
}

// Close detaches the server from the segment.
func (s *ProcServer) Close() { s.Sys.Close() }

// ProcClient is a core.Client attached to a segment.
type ProcClient struct {
	*core.Client
	Sys *ProcSystem
}

// Close detaches the client from the segment.
func (c *ProcClient) Close() { c.Sys.Close() }

// AttachProcServer claims the server slot of a mapped segment and
// builds the server handle over it: the receive endpoint round-robins
// every request lane, and each reply endpoint targets one client's
// reply lane and wake slot.
func AttachProcServer(seg *shm.Seg, opts ProcOptions) (*ProcServer, error) {
	sys, err := attachProc(seg, ServerSlot, opts)
	if err != nil {
		return nil, err
	}
	v := sys.v
	n := v.Clients()
	deq := make([]*shm.Lane, n)
	for i := range deq {
		deq[i] = v.ReqLane(i)
	}
	rcv := &procPort{
		v: v, pool: v.Pool, deq: deq,
		slot: &v.Sems[ServerSlot], sem: core.SemID(ServerSlot), peer: -1,
	}
	replies := make([]core.Port, n)
	for i := range replies {
		replies[i] = &procPort{
			v: v, pool: v.Pool, enq: v.ReplyLane(i),
			slot: &v.Sems[1+i], sem: core.SemID(1 + i), peer: 1 + i,
		}
	}
	srv := &core.Server{
		Alg: opts.Alg, MaxSpin: opts.MaxSpin,
		Rcv: rcv, Replies: replies, A: sys.newActor(),
		M: opts.M, Obs: opts.Obs,
	}
	if v.Blocks != nil {
		// Lease owner = lifetable slot, so the sweeper can attribute and
		// reclaim a dead participant's payload blocks.
		srv.Blocks, srv.Owner = v.Blocks, uint32(ServerSlot)
	}
	return &ProcServer{Server: srv, Sys: sys}, nil
}

// AttachProcClient claims client id's slot of a mapped segment and
// builds the client handle over it.
func AttachProcClient(seg *shm.Seg, id int, opts ProcOptions) (*ProcClient, error) {
	if vv, err := seg.View(); err != nil {
		return nil, err
	} else if id < 0 || id >= vv.Clients() {
		return nil, fmt.Errorf("livebind: client id %d out of range [0,%d)", id, vv.Clients())
	}
	sys, err := attachProc(seg, 1+id, opts)
	if err != nil {
		return nil, err
	}
	v := sys.v
	srvPort := &procPort{
		v: v, pool: v.Pool, enq: v.ReqLane(id),
		slot: &v.Sems[ServerSlot], sem: core.SemID(ServerSlot), peer: ServerSlot,
	}
	rcv := &procPort{
		v: v, pool: v.Pool, deq: []*shm.Lane{v.ReplyLane(id)},
		slot: &v.Sems[1+id], sem: core.SemID(1 + id), peer: ServerSlot,
	}
	cl := &core.Client{
		ID: int32(id), Alg: opts.Alg, MaxSpin: opts.MaxSpin,
		Srv: srvPort, Rcv: rcv, A: sys.newActor(),
		M: opts.M, Obs: opts.Obs,
	}
	if v.Blocks != nil {
		cl.Blocks, cl.Owner = v.Blocks, uint32(1+id)
	}
	return &ProcClient{Client: cl, Sys: sys}, nil
}
