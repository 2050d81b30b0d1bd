package livebind

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ulipc/internal/core"
	"ulipc/internal/queue"
)

// Server groups: N server shards, each owning one SPSC request lane
// per client, with a fixed home shard per client (client i sends to
// shard i mod N) and bounded work stealing. The topology is a full
// mesh of SPSC rings — request lane req[s][i] (client i -> shard s)
// and reply lane rep[s][i] (shard s -> client i) — so every ring keeps
// the provable single-producer/single-consumer contract even though a
// stealing shard can answer another shard's clients (a thief replies
// through its OWN rep lane to the client).
//
// Wake state is fused per consumer, not per ring: shard s sleeps on
// one semaphore/awake flag spanning all its request lanes (its Channel
// wraps a queue.Lanes fan-in), and client i sleeps on one spanning all
// its reply lanes. Producers therefore run the unmodified Figure 4
// protocol against the consumer's fused channel; which ring carries
// the payload is invisible to the wake accounting. DESIGN.md §10
// walks the token conservation argument, including the steal residue
// re-wake.

// group is the sharded-topology state hung off a System built with
// Options.Shards > 0.
type group struct {
	s      *System
	shards int

	stealMax int // messages per steal; 0 disables stealing
	stealMin int // minimum victim depth worth stealing from

	recvs    []*Channel      // shard wake carriers; recvs[s].q == reqLanes[s]
	reqLanes []*queue.Lanes  // per-shard fan-in over req[s][*]
	repLanes []*queue.Lanes  // per-client fan-in over rep[*][i]
	rep      [][]*queue.SPSC // reply lanes [shard][client]

	dead      []atomic.Bool  // shard declared dead by the sweeper
	shardActs []atomic.Int32 // actor id serving each shard (-1 until taken)

	mu    sync.Mutex
	taken []bool // ShardServer(s) issued
}

// newLanesChannel wraps a fan-in lane set as a Channel so the wake
// state, shutdown state, and recovery machinery of the scalar topology
// apply unchanged to a lane group.
func newLanesChannel(l *queue.Lanes) *Channel {
	c := &Channel{q: l, kind: queue.KindSPSC, sem: NewSemaphore(0)}
	c.awake.Store(true)
	return c
}

// buildGroup wires the sharded topology (called by NewSystem when
// Options.Shards > 0, in place of the scalar recv/reply channels).
func (s *System) buildGroup() error {
	o := &s.opts
	g := &group{
		s:        s,
		shards:   o.Shards,
		stealMax: o.StealBatch,
		stealMin: o.StealThreshold,
	}
	if o.NoSteal || g.shards < 2 {
		g.stealMax = 0
	}
	g.dead = make([]atomic.Bool, g.shards)
	g.shardActs = make([]atomic.Int32, g.shards)
	for i := range g.shardActs {
		g.shardActs[i].Store(-1)
	}
	g.taken = make([]bool, g.shards)
	g.rep = make([][]*queue.SPSC, g.shards)
	for sh := 0; sh < g.shards; sh++ {
		req := make([]*queue.SPSC, o.Clients)
		g.rep[sh] = make([]*queue.SPSC, o.Clients)
		for i := 0; i < o.Clients; i++ {
			var err error
			if req[i], err = queue.NewSPSC(o.QueueCap); err != nil {
				return err
			}
			if g.rep[sh][i], err = queue.NewSPSC(o.QueueCap); err != nil {
				return err
			}
		}
		lanes, err := queue.NewLanes(req)
		if err != nil {
			return err
		}
		g.reqLanes = append(g.reqLanes, lanes)
		ch := newLanesChannel(lanes)
		s.addSem(ch)
		g.recvs = append(g.recvs, ch)
	}
	for i := 0; i < o.Clients; i++ {
		col := make([]*queue.SPSC, g.shards)
		for sh := range col {
			col[sh] = g.rep[sh][i]
		}
		lanes, err := queue.NewLanes(col)
		if err != nil {
			return err
		}
		g.repLanes = append(g.repLanes, lanes)
		ch := newLanesChannel(lanes)
		s.addSem(ch)
		s.replies = append(s.replies, ch)
	}
	// Lanes are SPSC rings with system-enforced topology, exactly like
	// the scalar SPSC reply default — but here it is structural, not a
	// default, so the WorkerPool rebuild escape hatch stays off.
	s.replySPSC, s.replyAuto = true, false
	s.grp = g
	return nil
}

// Shards returns the shard count (0 for a non-sharded system).
func (s *System) Shards() int {
	if s.grp == nil {
		return 0
	}
	return s.grp.shards
}

// ShardDead reports whether the sweeper declared shard sh dead
// (always false on a non-sharded system or out-of-range index).
func (s *System) ShardDead(sh int) bool {
	if s.grp == nil || sh < 0 || sh >= s.grp.shards {
		return false
	}
	return s.grp.dead[sh].Load()
}

// ShardChannel exposes shard sh's fused request channel (diagnostics
// and tests); nil on a non-sharded system.
func (s *System) ShardChannel(sh int) *Channel {
	if s.grp == nil {
		return nil
	}
	return s.grp.recvs[sh]
}

// noteActorDead is the recovery sweeper's group hook: when the dead
// actor was serving a shard, the shard is marked dead and every client
// semaphore gets one compensating V. A client parked on a reply owed
// by the dead shard would otherwise sleep forever (the reply is never
// produced, so no producer-side wake is coming); the V bounces it into
// the consumer loop, where its port's peer-death state turns the wake
// into ErrPeerDead. Clients not owed anything by this shard absorb the
// V as a spurious wake-up — the same token-accounting argument as the
// sweeper's lost-wake rescue.
func (s *System) noteActorDead(id int32) {
	g := s.grp
	if g == nil {
		return
	}
	for sh := range g.shardActs {
		if g.shardActs[sh].Load() != id {
			continue
		}
		g.dead[sh].Store(true)
		for _, ch := range s.replies {
			if !ch.closed.Load() {
				ch.sem.V()
			}
		}
	}
}

// ShardServer builds the server handle for shard sh: its Rcv spans the
// shard's request lanes (plus bounded stealing from sibling shards),
// and Replies[i] produces into this shard's own reply lane to client i
// while waking the client's fused reply channel. Each shard handle may
// be taken once (its lane set is single-consumer).
func (s *System) ShardServer(sh int) (*core.Server, error) {
	g := s.grp
	if g == nil {
		return nil, fmt.Errorf("%w: ShardServer requires Options.Shards > 0 (use Server on a non-sharded system)", ErrBadOption)
	}
	if sh < 0 || sh >= g.shards {
		return nil, fmt.Errorf("livebind: shard index %d out of range [0,%d)", sh, g.shards)
	}
	g.mu.Lock()
	if g.taken[sh] {
		g.mu.Unlock()
		return nil, fmt.Errorf("%w: shard server %d already taken (its lane set is single-consumer)", ErrSPSCTopology, sh)
	}
	g.taken[sh] = true
	g.mu.Unlock()

	a := s.newActor(fmt.Sprintf("shard%d", sh))
	g.shardActs[sh].Store(a.ID)
	replies := make([]core.Port, len(s.replies))
	for i, ch := range s.replies {
		replies[i] = &lanePort{lane: g.rep[sh][i], c: ch}
	}
	s.registerActor(a, []*Channel{g.recvs[sh]}, s.replies)
	return &core.Server{
		Alg:     s.opts.Alg,
		MaxSpin: s.opts.MaxSpin,
		Tuner:   s.newTuner(fmt.Sprintf("shard%d", sh), a),
		Rcv:     &shardRecvPort{g: g, sh: sh, ch: g.recvs[sh], lanes: g.reqLanes[sh], a: a},
		Replies: replies,
		A:       a,
		M:       a.M,
		Obs:     a.Obs,
		Blocks:  s.blockStore(a),
		Owner:   uint32(a.ID),
	}, nil
}

// ShardServers builds every shard's server handle in shard order.
func (s *System) ShardServers() ([]*core.Server, error) {
	if s.grp == nil {
		return nil, fmt.Errorf("%w: ShardServers requires Options.Shards > 0", ErrBadOption)
	}
	out := make([]*core.Server, s.grp.shards)
	for sh := range out {
		srv, err := s.ShardServer(sh)
		if err != nil {
			return nil, err
		}
		out[sh] = srv
	}
	return out, nil
}

// groupClient builds client i's handle on the sharded topology: every
// request, the connect and disconnect handshakes included, goes to its
// home shard i mod shards, which then owns the connection's
// bookkeeping and the reply the client waits for.
func (s *System) groupClient(i int) (*core.Client, error) {
	g := s.grp
	a := s.newActor(fmt.Sprintf("client%d", i))
	home := i % g.shards
	s.registerActor(a, []*Channel{s.replies[i]}, g.recvs)
	return &core.Client{
		ID:        int32(i),
		Alg:       s.opts.Alg,
		MaxSpin:   s.opts.MaxSpin,
		Tuner:     s.newTuner(fmt.Sprintf("client%d", i), a),
		Srv:       &homePort{g: g, home: home, lane: g.reqLanes[home].Lane(i), ch: g.recvs[home]},
		Rcv:       &clientRcvPort{g: g, home: home, ch: s.replies[i], lanes: g.repLanes[i]},
		A:         a,
		M:         a.M,
		Obs:       a.Obs,
		Blocks:    s.blockStore(a),
		Owner:     uint32(a.ID),
		HighWater: s.opts.Admission.HighWater,
		Budget:    s.retryBudget(),
	}, nil
}

// homePort is a client's request endpoint on a sharded system: the
// client's own SPSC lane into its home shard, with the wake state,
// shutdown state and death of that shard's fused channel.
type homePort struct {
	g    *group
	home int
	lane *queue.SPSC // req[home][client]
	ch   *Channel    // g.recvs[home]
}

// TryEnqueue implements core.Port.
func (p *homePort) TryEnqueue(m core.Msg) bool { return p.lane.Enqueue(m) }

// TryEnqueueBatch implements core.Port: one lane EnqueueN, one index
// publish for k messages.
func (p *homePort) TryEnqueueBatch(ms []core.Msg) int { return p.lane.EnqueueN(ms) }

// TryDequeue implements core.Port (request endpoints are never
// dequeued by clients).
func (p *homePort) TryDequeue() (core.Msg, bool) { return core.Msg{}, false }

// TryDequeueBatch implements core.Port (never dequeued, as above).
func (p *homePort) TryDequeueBatch([]core.Msg) int { return 0 }

// Empty implements core.Port.
func (p *homePort) Empty() bool { return p.g.reqLanes[p.home].Empty() }

// Depth implements core.Port, the admission-control observable: the
// home shard's total lane depth, the only place this client's traffic
// can go.
func (p *homePort) Depth() int { return p.g.reqLanes[p.home].Len() }

// SetAwake implements core.Port.
func (p *homePort) SetAwake(v bool) { p.ch.awake.Store(v) }

// TASAwake implements core.Port.
func (p *homePort) TASAwake() bool { return p.ch.awake.Swap(true) }

// ClaimWake implements core.Port: the producer's test-and-set.
func (p *homePort) ClaimWake() bool { return !p.TASAwake() }

// Sem implements core.Port.
func (p *homePort) Sem() core.SemID { return p.ch.id }

// Refusing implements core.Port: shutdown or the home shard's death
// make new sends fail fast. The sweeper marks a shard dead before it
// closes the shard's channel (recovery.recoverLocked), so a refusing
// channel on a live shard means shutdown.
func (p *homePort) Refusing() bool { return p.ch.refuse.Load() || p.g.dead[p.home].Load() }

// Closed implements core.Port.
func (p *homePort) Closed() bool { return p.ch.closed.Load() || p.g.dead[p.home].Load() }

// PeerDead implements core.Port: it decides whether a refused send
// surfaces ErrPeerDead (the home shard died) rather than ErrShutdown.
func (p *homePort) PeerDead() bool { return p.g.dead[p.home].Load() }

// clientRcvPort is a client's reply endpoint: the fan-in over its
// reply lanes from every shard. Its closed/dead view folds in the
// death of the home shard, which is owed every reply the client waits
// for — when the sweeper declares it dead, the parked wait must end in
// ErrPeerDead instead of sleeping forever.
type clientRcvPort struct {
	g     *group
	home  int
	ch    *Channel
	lanes *queue.Lanes // ch.q: the client's fan-in over its reply lanes
}

// TryEnqueue implements core.Port (reply endpoints are never enqueued
// by clients).
func (p *clientRcvPort) TryEnqueue(core.Msg) bool { return false }

// TryEnqueueBatch implements core.Port (never enqueued, as above).
func (p *clientRcvPort) TryEnqueueBatch([]core.Msg) int { return 0 }

// TryDequeue implements core.Port.
func (p *clientRcvPort) TryDequeue() (core.Msg, bool) { return p.lanes.Dequeue() }

// TryDequeueBatch implements core.Port: one lane lock and one
// index publish per shard with replies queued.
func (p *clientRcvPort) TryDequeueBatch(dst []core.Msg) int { return p.lanes.DequeueN(dst) }

// Empty implements core.Port.
func (p *clientRcvPort) Empty() bool { return p.lanes.Empty() }

// Depth implements core.Port (never enqueued, as above).
func (p *clientRcvPort) Depth() int { return 0 }

// SetAwake implements core.Port.
func (p *clientRcvPort) SetAwake(v bool) { p.ch.awake.Store(v) }

// TASAwake implements core.Port.
func (p *clientRcvPort) TASAwake() bool { return p.ch.awake.Swap(true) }

// ClaimWake implements core.Port: the producer's test-and-set.
func (p *clientRcvPort) ClaimWake() bool { return !p.TASAwake() }

// Sem implements core.Port.
func (p *clientRcvPort) Sem() core.SemID { return p.ch.id }

// Refusing implements core.Port.
func (p *clientRcvPort) Refusing() bool { return p.ch.refuse.Load() }

// Closed implements core.Port.
func (p *clientRcvPort) Closed() bool {
	return p.ch.closed.Load() || p.g.dead[p.home].Load()
}

// PeerDead implements core.Port.
func (p *clientRcvPort) PeerDead() bool {
	return p.ch.dead.Load() || p.g.dead[p.home].Load()
}

// lanePort is a shard's reply endpoint to one client: the payload goes
// into this shard's own SPSC lane (single producer: this shard), while
// the wake state and shutdown state belong to the client's fused reply
// channel.
type lanePort struct {
	lane *queue.SPSC
	c    *Channel
}

// TryEnqueue implements core.Port.
func (p *lanePort) TryEnqueue(m core.Msg) bool { return p.lane.Enqueue(m) }

// TryEnqueueBatch implements core.Port.
func (p *lanePort) TryEnqueueBatch(ms []core.Msg) int { return p.lane.EnqueueN(ms) }

// TryDequeue implements core.Port (producer-only endpoint).
func (p *lanePort) TryDequeue() (core.Msg, bool) { return core.Msg{}, false }

// TryDequeueBatch implements core.Port (producer-only endpoint).
func (p *lanePort) TryDequeueBatch([]core.Msg) int { return 0 }

// Empty implements core.Port.
func (p *lanePort) Empty() bool { return p.lane.Empty() }

// Depth implements core.Port.
func (p *lanePort) Depth() int { return p.lane.Len() }

// SetAwake implements core.Port.
func (p *lanePort) SetAwake(v bool) { p.c.awake.Store(v) }

// TASAwake implements core.Port.
func (p *lanePort) TASAwake() bool { return p.c.awake.Swap(true) }

// ClaimWake implements core.Port: the producer's test-and-set.
func (p *lanePort) ClaimWake() bool { return !p.TASAwake() }

// Sem implements core.Port.
func (p *lanePort) Sem() core.SemID { return p.c.id }

// Refusing implements core.Port.
func (p *lanePort) Refusing() bool { return p.c.refuse.Load() }

// Closed implements core.Port.
func (p *lanePort) Closed() bool { return p.c.closed.Load() }

// PeerDead implements core.Port.
func (p *lanePort) PeerDead() bool { return p.c.dead.Load() }

// shardRecvPort is a shard server's receive endpoint: its own lane
// fan-in first, then — when the shard runs dry and stealing is on — a
// bounded batch from the deepest live sibling. Stolen messages are
// stashed and handed out from there, first, by both dequeue forms, so
// the Server's per-message accounting (wake retirement, outstanding
// audit) applies to them unchanged.
type shardRecvPort struct {
	g     *group
	sh    int
	ch    *Channel
	lanes *queue.Lanes
	a     *Actor

	stash []core.Msg
	si    int
}

// TryDequeue implements core.Port.
func (p *shardRecvPort) TryDequeue() (core.Msg, bool) {
	if p.si < len(p.stash) {
		m := p.stash[p.si]
		p.si++
		return m, true
	}
	if m, ok := p.lanes.Dequeue(); ok {
		return m, true
	}
	if n := p.steal(); n > 0 {
		p.si = 1
		return p.stash[0], true
	}
	return core.Msg{}, false
}

// TryDequeueBatch implements core.Port in TryDequeue's order: the
// stash, then the shard's own lanes as one Lanes.DequeueN, and a steal
// only when both came up dry.
func (p *shardRecvPort) TryDequeueBatch(dst []core.Msg) int {
	n := 0
	if p.si < len(p.stash) { // a steal that came up empty leaves si past the end
		n = copy(dst, p.stash[p.si:])
		p.si += n
	}
	if n < len(dst) {
		n += p.lanes.DequeueN(dst[n:])
	}
	if n == 0 && len(dst) > 0 && p.steal() > 0 {
		n = copy(dst, p.stash)
		p.si = n
	}
	return n
}

// TryEnqueueBatch implements core.Port (consumer-only endpoint).
func (p *shardRecvPort) TryEnqueueBatch([]core.Msg) int { return 0 }

// steal takes a bounded batch from the deepest live sibling shard into
// the stash and re-wakes the victim if its lanes still hold messages —
// the victim may have parked while the steal held its lane lock,
// consuming a producer's wake token without seeing the message it
// announced, and without the re-wake that residue would strand (see
// DESIGN.md §10, steal protocol).
func (p *shardRecvPort) steal() int {
	g := p.g
	if g.stealMax <= 0 {
		return 0
	}
	victim, depth := -1, g.stealMin-1
	for s := 0; s < g.shards; s++ {
		if s == p.sh || g.dead[s].Load() {
			continue
		}
		if d := g.reqLanes[s].Len(); d > depth {
			victim, depth = s, d
		}
	}
	if victim < 0 {
		return 0
	}
	if cap(p.stash) < g.stealMax {
		p.stash = make([]core.Msg, g.stealMax)
	}
	n := g.reqLanes[victim].Steal(p.stash[:g.stealMax], g.stealMin)
	p.stash = p.stash[:n]
	if n > 0 && !g.reqLanes[victim].Empty() {
		vch := g.recvs[victim]
		if !vch.awake.Swap(true) {
			p.a.V(vch.id)
		}
	}
	return n
}

// TryEnqueue implements core.Port (consumer-only endpoint).
func (p *shardRecvPort) TryEnqueue(core.Msg) bool { return false }

// Empty implements core.Port. It reflects only this shard's own
// backlog (plus the stash); steal opportunities are probed on the
// dequeue path, not the spin poll.
func (p *shardRecvPort) Empty() bool {
	return p.si >= len(p.stash) && p.lanes.Empty()
}

// Depth implements core.Port (consumer-only endpoint).
func (p *shardRecvPort) Depth() int { return 0 }

// SetAwake implements core.Port.
func (p *shardRecvPort) SetAwake(v bool) { p.ch.awake.Store(v) }

// TASAwake implements core.Port.
func (p *shardRecvPort) TASAwake() bool { return p.ch.awake.Swap(true) }

// ClaimWake implements core.Port: the producer's test-and-set.
func (p *shardRecvPort) ClaimWake() bool { return !p.TASAwake() }

// Sem implements core.Port.
func (p *shardRecvPort) Sem() core.SemID { return p.ch.id }

// Refusing implements core.Port.
func (p *shardRecvPort) Refusing() bool { return p.ch.refuse.Load() }

// Closed implements core.Port.
func (p *shardRecvPort) Closed() bool { return p.ch.closed.Load() }

// PeerDead implements core.Port.
func (p *shardRecvPort) PeerDead() bool { return p.ch.dead.Load() }

var (
	_ core.Port = (*homePort)(nil)
	_ core.Port = (*clientRcvPort)(nil)
	_ core.Port = (*lanePort)(nil)
	_ core.Port = (*shardRecvPort)(nil)
)
