package livebind

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ulipc/internal/core"
	"ulipc/internal/queue"
)

// Server groups: N server shards partitioning the clients. Client i is
// homed to shard i mod N and owns two SPSC rings: its request lane into
// that shard and its reply ring back from it. Shard s consumes only the
// request lanes of its own clients and produces only into their reply
// rings, so the topology is 2·clients rings, every one single-producer/
// single-consumer by construction, and nothing crosses between shards —
// the paper's server answering down the reply channel the request names.
//
// Wake state is fused per consumer: shard s sleeps on one semaphore/
// awake flag spanning all its request lanes (its Channel wraps a
// queue.Lanes fan-in), and client i sleeps on its reply channel.
// Producers therefore run the unmodified Figure 4 protocol against the
// consumer's channel; which lane carries the payload is invisible to
// the wake accounting. DESIGN.md §10 walks the token conservation
// argument.

// group is the sharded-topology state hung off a System built with
// Options.Shards > 0.
type group struct {
	shards int

	recvs    []*Channel     // shard wake carriers; recvs[s].q == reqLanes[s]
	reqLanes []*queue.Lanes // shard s's fan-in over its own clients' request lanes

	dead      []atomic.Bool  // shard declared dead by the sweeper
	shardActs []atomic.Int32 // actor id serving each shard (-1 until taken)

	mu    sync.Mutex
	taken []bool // ShardServer(s) issued
}

// buildGroup wires the sharded topology (called by NewSystem when
// Options.Shards > 0, in place of the scalar recv/reply channels).
// Validation guarantees every shard at least one client.
func (s *System) buildGroup() error {
	o := &s.opts
	g := &group{shards: o.Shards}
	g.dead = make([]atomic.Bool, g.shards)
	g.shardActs = make([]atomic.Int32, g.shards)
	for i := range g.shardActs {
		g.shardActs[i].Store(-1)
	}
	g.taken = make([]bool, g.shards)
	for sh := 0; sh < g.shards; sh++ {
		// Shard sh's lane j belongs to client sh + j·shards (laneOf).
		var req []*queue.SPSC
		for i := sh; i < o.Clients; i += g.shards {
			q, err := queue.NewSPSC(o.QueueCap)
			if err != nil {
				return err
			}
			req = append(req, q)
		}
		lanes, err := queue.NewLanes(req)
		if err != nil {
			return err
		}
		g.reqLanes = append(g.reqLanes, lanes)
		// The fan-in sits behind a Channel so the wake state, shutdown
		// state and recovery machinery of the scalar topology apply
		// unchanged to the lane group.
		ch := &Channel{q: lanes, kind: queue.KindSPSC, sem: NewSemaphore(0)}
		ch.awake.Store(true)
		s.addSem(ch)
		g.recvs = append(g.recvs, ch)
	}
	for i := 0; i < o.Clients; i++ {
		ch, err := newSPSCChannel(o.QueueCap)
		if err != nil {
			return err
		}
		s.addSem(ch)
		s.replies = append(s.replies, ch)
	}
	// Every ring is SPSC with system-enforced topology, exactly like the
	// scalar SPSC reply default — but here it is structural, not a
	// default, so the WorkerPool rebuild escape hatch stays off.
	s.replySPSC = true
	s.grp = g
	return nil
}

// laneOf returns client i's request lane in its home shard's fan-in.
func (g *group) laneOf(i int) *queue.SPSC { return g.reqLanes[i%g.shards].Lane(i / g.shards) }

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
// actor was serving a shard, the shard is marked dead, so its clients'
// next sends fail fast with ErrPeerDead. A client parked on a reply
// the dead shard owes needs nothing more: the shard was the only
// producer registered on that client's reply channel, so the sweeper's
// side accounting marks the channel peer-dead and releases the wait.
func (s *System) noteActorDead(id int32) {
	if g := s.grp; g != nil {
		for sh := range g.shardActs {
			if g.shardActs[sh].Load() == id {
				g.dead[sh].Store(true)
			}
		}
	}
}

// ShardServer builds the server handle for shard sh: its Rcv spans the
// request lanes of the shard's own clients, and Replies[i] produces
// into client i's reply ring — for the shard's own clients; a reply to
// any other client is refused (foreignPort). Each shard handle may be
// taken once (its lane set is single-consumer).
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
	var owned []*Channel
	for i, ch := range s.replies {
		replies[i] = foreignPort{}
		if i%g.shards == sh {
			replies[i] = NewPort(ch)
			owned = append(owned, ch)
		}
	}
	s.registerActor(a, []*Channel{g.recvs[sh]}, owned)
	return &core.Server{
		Alg:     s.opts.Alg,
		MaxSpin: s.opts.MaxSpin,
		Tuner:   s.newTuner(fmt.Sprintf("shard%d", sh), a),
		Rcv:     &shardRecvPort{ch: g.recvs[sh], lanes: g.reqLanes[sh]},
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
// bookkeeping and every reply the client waits for.
func (s *System) groupClient(i int) (*core.Client, error) {
	g := s.grp
	a := s.newActor(fmt.Sprintf("client%d", i))
	home := i % g.shards
	s.registerActor(a, []*Channel{s.replies[i]}, []*Channel{g.recvs[home]})
	return &core.Client{
		ID:        int32(i),
		Alg:       s.opts.Alg,
		MaxSpin:   s.opts.MaxSpin,
		Tuner:     s.newTuner(fmt.Sprintf("client%d", i), a),
		Srv:       &homePort{lane: g.laneOf(i), lanes: g.reqLanes[home], ch: g.recvs[home], dead: &g.dead[home]},
		Rcv:       NewPort(s.replies[i]),
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
	lane  *queue.SPSC  // the client's lane in its home shard's fan-in
	lanes *queue.Lanes // the home shard's fan-in
	ch    *Channel     // the home shard's fused channel
	dead  *atomic.Bool // the home shard's death mark
}

// TryEnqueue implements core.SendPort.
func (p *homePort) TryEnqueue(m core.Msg) bool { return p.lane.Enqueue(m) }

// TryEnqueueBatch implements core.SendPort: one lane EnqueueN, one
// index publish for k messages.
func (p *homePort) TryEnqueueBatch(ms []core.Msg) int { return p.lane.EnqueueN(ms) }

// Depth implements core.SendPort, the admission-control observable: the
// home shard's total lane depth, the only place this client's traffic
// can go.
func (p *homePort) Depth() int { return p.lanes.Len() }

// ClaimWake implements core.SendPort: the producer's test-and-set.
func (p *homePort) ClaimWake() bool { return !p.ch.awake.Swap(true) }

// Sem implements core.SendPort.
func (p *homePort) Sem() core.SemID { return p.ch.id }

// Refusing implements core.SendPort: shutdown or the home shard's death
// make new sends fail fast. The sweeper marks a shard dead before it
// closes the shard's channel (recovery.recoverLocked), so a refusing
// channel on a live shard means shutdown.
func (p *homePort) Refusing() bool { return p.ch.refuse.Load() || p.dead.Load() }

// Closed implements core.SendPort.
func (p *homePort) Closed() bool { return p.ch.closed.Load() || p.dead.Load() }

// PeerDead implements core.SendPort: it decides whether a refused send
// surfaces ErrPeerDead (the home shard died) rather than ErrShutdown.
func (p *homePort) PeerDead() bool { return p.dead.Load() }

// foreignPort is a shard's reply endpoint to a client homed on another
// shard. A shard receives requests only from its own clients, so such a
// reply means a work callback re-addressed one: the port refuses it,
// the server then drops it with its payload lease as for an invalid
// channel, and no ring of another shard is ever written. It claims no
// wake, so nothing is signalled either.
type foreignPort struct{}

func (foreignPort) TryEnqueue(core.Msg) bool       { return false }
func (foreignPort) TryEnqueueBatch([]core.Msg) int { return 0 }
func (foreignPort) TryDequeue() (core.Msg, bool)   { return core.Msg{}, false }
func (foreignPort) TryDequeueBatch([]core.Msg) int { return 0 }
func (foreignPort) Empty() bool                    { return true }
func (foreignPort) Depth() int                     { return 0 }
func (foreignPort) SetAwake(bool)                  {}
func (foreignPort) TASAwake() bool                 { return true }
func (foreignPort) ClaimWake() bool                { return false }
func (foreignPort) Sem() core.SemID                { return -1 }
func (foreignPort) Refusing() bool                 { return true }
func (foreignPort) Closed() bool                   { return true }
func (foreignPort) PeerDead() bool                 { return false }

// shardRecvPort is a shard server's receive endpoint: the fan-in over
// its own clients' request lanes, one try-lock and one SPSC.DequeueN
// per non-empty lane per burst.
type shardRecvPort struct {
	ch    *Channel
	lanes *queue.Lanes
}

// TryDequeue implements core.Port.
func (p *shardRecvPort) TryDequeue() (core.Msg, bool) { return p.lanes.Dequeue() }

// TryDequeueBatch implements core.Port.
func (p *shardRecvPort) TryDequeueBatch(dst []core.Msg) int { return p.lanes.DequeueN(dst) }

// TryEnqueue implements core.Port (consumer-only endpoint).
func (p *shardRecvPort) TryEnqueue(core.Msg) bool { return false }

// TryEnqueueBatch implements core.Port (consumer-only endpoint).
func (p *shardRecvPort) TryEnqueueBatch([]core.Msg) int { return 0 }

// Empty implements core.Port.
func (p *shardRecvPort) Empty() bool { return p.lanes.Empty() }

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
	_ core.SendPort = (*homePort)(nil)
	_ core.Port     = foreignPort{}
	_ core.Port     = (*shardRecvPort)(nil)
)
