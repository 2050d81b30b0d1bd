package livebind

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ulipc/internal/core"
	"ulipc/internal/metrics"
	"ulipc/internal/queue"
)

// Server groups: N server shards, each owning one SPSC request lane
// per client, with client-side shard selection and bounded work
// stealing. The topology is a full mesh of SPSC rings — request lane
// req[s][i] (client i -> shard s) and reply lane rep[s][i] (shard s ->
// client i) — so every ring keeps the provable single-producer/
// single-consumer contract of PR 1 even though any client can reach
// any shard and a stealing shard can answer another shard's clients
// (a thief replies through its OWN rep lane to the client).
//
// Wake state is fused per consumer, not per ring: shard s sleeps on
// one semaphore/awake flag spanning all its request lanes (its Channel
// wraps a queue.Lanes fan-in), and client i sleeps on one spanning all
// its reply lanes. Producers therefore run the unmodified Figure 4
// protocol against the consumer's fused channel; which ring carries
// the payload is invisible to the wake accounting. DESIGN.md §10
// walks the token conservation argument, including the steal residue
// re-wake.

// ShardView is the read-only load/liveness view a ShardPicker decides
// from. Depths are racy snapshots (like queue.SPSC.Len).
type ShardView interface {
	// Shards returns the group size.
	Shards() int
	// Depth returns the total queued requests across shard s's lanes.
	Depth(s int) int
	// Alive reports whether shard s has not been declared dead by the
	// recovery sweeper.
	Alive(s int) bool
}

// ShardPicker selects the destination shard for a client's request.
// Pick receives the client id, the client's previous pick (-1 before
// the first), and the load view; it runs on the client's goroutine, so
// implementations shared across clients must be stateless or
// synchronised. Sticky pickers pin a client to one shard: the system
// then surfaces ErrPeerDead on new sends when that shard dies (the
// client's traffic has nowhere else to go), while non-sticky pickers
// simply route subsequent requests around the dead shard.
type ShardPicker interface {
	Pick(client int32, last int, v ShardView) int
	Sticky() bool
}

// PickHash pins each client to shard (client mod shards) — the
// stable, stateless default. Deliberately ignores liveness: a pinned
// client keeps addressing its home shard after a shard death so the
// failure surfaces as ErrPeerDead instead of silently migrating.
type PickHash struct{}

// Pick implements ShardPicker.
func (PickHash) Pick(client int32, _ int, v ShardView) int {
	return int(client) % v.Shards()
}

// Sticky implements ShardPicker.
func (PickHash) Sticky() bool { return true }

// PickAffinity picks the least-loaded live shard on a client's first
// request and stays there for the connection's lifetime — load-aware
// placement with hash-like cache affinity afterwards.
type PickAffinity struct{}

// Pick implements ShardPicker.
func (PickAffinity) Pick(client int32, last int, v ShardView) int {
	if last >= 0 {
		return last
	}
	best, bd := -1, 0
	for s := 0; s < v.Shards(); s++ {
		if !v.Alive(s) {
			continue
		}
		if d := v.Depth(s); best < 0 || d < bd {
			best, bd = s, d
		}
	}
	if best < 0 {
		return int(client) % v.Shards()
	}
	return best
}

// Sticky implements ShardPicker.
func (PickAffinity) Sticky() bool { return true }

// PickLeastLoaded re-picks the shallowest live shard on every request
// (ties keep the previous shard, then the lowest index). Maximum load
// spreading, no affinity.
type PickLeastLoaded struct{}

// Pick implements ShardPicker.
func (PickLeastLoaded) Pick(client int32, last int, v ShardView) int {
	best, bd := -1, 0
	for s := 0; s < v.Shards(); s++ {
		if !v.Alive(s) {
			continue
		}
		d := v.Depth(s)
		if best < 0 || d < bd || (d == bd && s == last) {
			best, bd = s, d
		}
	}
	if best < 0 {
		return int(client) % v.Shards()
	}
	return best
}

// Sticky implements ShardPicker.
func (PickLeastLoaded) Sticky() bool { return false }

// group is the sharded-topology state hung off a System built with
// Options.Shards > 0.
type group struct {
	s      *System
	shards int
	picker ShardPicker

	stealMax int // messages per steal; 0 disables stealing
	stealMin int // minimum victim depth worth stealing from

	// Quarantine-circuit configuration (Admission; 0 = circuits off).
	quarAfter    int // consecutive high-water observations to open
	reprobeAfter int // picks sat out before a half-open trial
	highWater    int // lane depth considered "high"

	recvs    []*Channel      // shard wake carriers; recvs[s].q == reqLanes[s]
	reqLanes []*queue.Lanes  // per-shard fan-in over req[s][*]
	repLanes []*queue.Lanes  // per-client fan-in over rep[*][i]
	rep      [][]*queue.SPSC // reply lanes [shard][client]

	dead      []atomic.Bool  // shard declared dead by the sweeper
	circuits  []shardCircuit // per-shard quarantine state
	shardActs []atomic.Int32 // actor id serving each shard (-1 until taken)

	mu    sync.Mutex
	taken []bool // ShardServer(s) issued
}

// shardCircuit is one shard's quarantine state (DESIGN.md §14): a
// breaker that opens after quarAfter consecutive picks saw the shard's
// lanes at or above the high-water mark, sits out reprobeAfter picks,
// then half-opens for one trial pick whose observation closes or
// re-opens it. All fields are advisory atomics updated from client
// goroutines; approximate counts are fine — the circuit bounds
// sustained saturation, not instantaneous depth.
type shardCircuit struct {
	state   atomic.Int32 // circClosed / circOpen / circHalfOpen
	strikes atomic.Int32 // consecutive high-water observations
	idle    atomic.Int32 // picks sat out while open
}

const (
	circClosed int32 = iota
	circOpen
	circHalfOpen
)

// circuitAllows reports whether shard s is pickable despite its
// circuit. An open circuit counts the picks routed around it and
// half-opens after reprobeAfter of them, letting exactly the
// transitioning pick through as the trial (CAS: one winner).
func (g *group) circuitAllows(s int) bool {
	if g.quarAfter <= 0 {
		return true
	}
	c := &g.circuits[s]
	if c.state.Load() != circOpen {
		return true
	}
	if c.idle.Add(1) >= int32(g.reprobeAfter) {
		return c.state.CompareAndSwap(circOpen, circHalfOpen)
	}
	return false
}

// observeShard feeds one pick's depth observation of shard sh into its
// circuit. m (may be nil) receives the Quarantines count when this
// observation opens the circuit.
func (g *group) observeShard(sh, depth int, m *metrics.Proc) {
	if g.quarAfter <= 0 {
		return
	}
	c := &g.circuits[sh]
	high := depth >= g.highWater
	switch c.state.Load() {
	case circHalfOpen:
		// The trial pick's verdict: drained closes the circuit, still
		// saturated re-opens it for another sit-out round.
		if high {
			c.idle.Store(0)
			c.state.Store(circOpen)
		} else {
			c.strikes.Store(0)
			c.state.Store(circClosed)
		}
	case circClosed:
		if !high {
			c.strikes.Store(0)
			return
		}
		if c.strikes.Add(1) >= int32(g.quarAfter) && c.state.CompareAndSwap(circClosed, circOpen) {
			c.idle.Store(0)
			if m != nil {
				m.Quarantines.Add(1)
			}
		}
	}
}

// Quarantined reports whether shard sh's circuit is currently open or
// half-open (diagnostics and tests; false on a non-sharded system).
func (s *System) Quarantined(sh int) bool {
	g := s.grp
	if g == nil || g.quarAfter <= 0 || sh < 0 || sh >= g.shards {
		return false
	}
	return g.circuits[sh].state.Load() != circClosed
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
		s:            s,
		shards:       o.Shards,
		picker:       o.Picker,
		stealMax:     o.StealBatch,
		stealMin:     o.StealThreshold,
		quarAfter:    o.Admission.QuarantineAfter,
		reprobeAfter: o.Admission.ReprobeAfter,
		highWater:    o.Admission.HighWater,
	}
	if o.NoSteal || g.shards < 2 {
		g.stealMax = 0
	}
	g.dead = make([]atomic.Bool, g.shards)
	g.circuits = make([]shardCircuit, g.shards)
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

// refusing reports whether the group entered shutdown phase 1. A dead
// shard's channel also refuses (the sweeper closed it), so the probe
// reads the first live shard — shutdown refuses all of them, a shard
// death only its own. The sweeper marks a shard dead before it closes
// the shard's channel (recovery.recoverLocked), so a shard that looks
// live here never refuses because it died.
func (g *group) refusing() bool {
	for s := range g.recvs {
		if !g.dead[s].Load() {
			return g.recvs[s].refuse.Load()
		}
	}
	return true // every shard dead: nothing can accept
}

// allDead reports whether every shard has been declared dead.
func (g *group) allDead() bool {
	for i := range g.dead {
		if !g.dead[i].Load() {
			return false
		}
	}
	return true
}

// shardView adapts group state for ShardPicker. Alive folds the
// quarantine circuits into the liveness view, so non-sticky pickers
// route around a saturated shard exactly as they route around a dead
// one — the probe that half-opens an open circuit reports the shard
// alive again for its one trial pick.
type shardView struct{ g *group }

func (v shardView) Shards() int     { return v.g.shards }
func (v shardView) Depth(s int) int { return v.g.reqLanes[s].Len() }
func (v shardView) Alive(s int) bool {
	return !v.g.dead[s].Load() && v.g.circuitAllows(s)
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

// groupClient builds client i's handle on the sharded topology.
func (s *System) groupClient(i int) (*core.Client, error) {
	g := s.grp
	a := s.newActor(fmt.Sprintf("client%d", i))
	home := i % g.shards
	bind := &clientBind{cur: home, last: -1}
	s.registerActor(a, []*Channel{s.replies[i]}, g.recvs)
	return &core.Client{
		ID:        int32(i),
		Alg:       s.opts.Alg,
		MaxSpin:   s.opts.MaxSpin,
		Tuner:     s.newTuner(fmt.Sprintf("client%d", i), a),
		Srv:       &pickPort{g: g, id: int32(i), home: home, sticky: g.picker.Sticky(), bind: bind, m: a.M},
		Rcv:       &clientRcvPort{g: g, ch: s.replies[i], lanes: g.repLanes[i], bind: bind},
		A:         a,
		M:         a.M,
		Obs:       a.Obs,
		Blocks:    s.blockStore(a),
		Owner:     uint32(a.ID),
		HighWater: s.opts.Admission.HighWater,
		Budget:    s.retryBudget(),
	}, nil
}

// clientBind is the shard-binding state one client's two ports share.
// Owned by the client's goroutine — Srv writes, Rcv reads, never
// concurrently (a Client handle is single-goroutine by contract).
type clientBind struct {
	cur  int // shard owed the in-flight reply (last successful enqueue)
	last int // last picked shard, -1 before the first pick
}

// pickPort is a client's request endpoint on a sharded system: every
// enqueue picks a shard (control ops always go to the hash home, so
// connect/disconnect bookkeeping stays per-shard coherent) and lands
// on this client's own SPSC lane to that shard. Wake operations
// (TASAwake/Sem) address the shard of the most recent enqueue — the
// protocols call them immediately after a successful enqueue, so the
// binding is always current.
type pickPort struct {
	g      *group
	id     int32
	home   int
	sticky bool
	bind   *clientBind
	m      *metrics.Proc // quarantine attribution; may be nil
}

// pick selects the destination shard for one message and feeds the
// chosen shard's depth into its quarantine circuit (the "N picks"
// clock of the breaker runs on actual traffic, so an idle system
// never quarantines anybody).
func (p *pickPort) pick(m core.Msg) int {
	if m.Op == core.OpConnect || m.Op == core.OpDisconnect {
		return p.home
	}
	sh := p.g.picker.Pick(p.id, p.bind.last, shardView{p.g})
	if sh < 0 || sh >= p.g.shards {
		sh = p.home
	}
	p.bind.last = sh
	p.g.observeShard(sh, p.g.reqLanes[sh].Len(), p.m)
	return sh
}

// pin returns the shard a sticky client is bound to.
func (p *pickPort) pin() int {
	if p.bind.last >= 0 {
		return p.bind.last
	}
	return p.home
}

// TryEnqueue implements core.Port.
func (p *pickPort) TryEnqueue(m core.Msg) bool {
	sh := p.pick(m)
	if !p.g.reqLanes[sh].Lane(int(p.id)).Enqueue(m) {
		return false
	}
	p.bind.cur = sh
	return true
}

// TryEnqueueBatch implements core.Port: one shard decision per
// burst, then one lane EnqueueN — the "one routing decision, one index
// publish, k messages" half of the batching contract.
func (p *pickPort) TryEnqueueBatch(ms []core.Msg) int {
	if len(ms) == 0 {
		return 0
	}
	sh := p.pick(ms[0])
	n := p.g.reqLanes[sh].Lane(int(p.id)).EnqueueN(ms)
	if n > 0 {
		p.bind.cur = sh
	}
	return n
}

// TryDequeue implements core.Port (request endpoints are never
// dequeued by clients).
func (p *pickPort) TryDequeue() (core.Msg, bool) { return core.Msg{}, false }

// TryDequeueBatch implements core.Port (never dequeued, as above).
func (p *pickPort) TryDequeueBatch([]core.Msg) int { return 0 }

// Empty implements core.Port.
func (p *pickPort) Empty() bool { return p.g.reqLanes[p.bind.cur].Empty() }

// Depth implements core.Port, the admission-control observable: a
// sticky client reports its pinned shard's lane depth (that shard is
// the only place its traffic can go), a non-sticky client the
// shallowest live shard's (if even the best destination is past high
// water, the whole group is saturated). Dead shards are excluded;
// quarantined ones are not — their depth is real backlog the breaker
// is draining, and admission should see it.
// Every depth read also feeds the quarantine circuit: under sustained
// overload the admission check rejects sends before any pick happens,
// so the depth probe is the only place a saturated shard is reliably
// observed — without it the circuit could never open exactly when it
// matters most.
func (p *pickPort) Depth() int {
	g := p.g
	if p.sticky {
		sh := p.pin()
		d := g.reqLanes[sh].Len()
		g.observeShard(sh, d, p.m)
		return d
	}
	min := -1
	for s := 0; s < g.shards; s++ {
		if g.dead[s].Load() {
			continue
		}
		d := g.reqLanes[s].Len()
		g.observeShard(s, d, p.m)
		if min < 0 || d < min {
			min = d
		}
	}
	if min < 0 {
		return int(^uint(0) >> 1) // every shard dead: nothing admits
	}
	return min
}

// SetAwake implements core.Port.
func (p *pickPort) SetAwake(v bool) { p.g.recvs[p.bind.cur].awake.Store(v) }

// TASAwake implements core.Port.
func (p *pickPort) TASAwake() bool { return p.g.recvs[p.bind.cur].awake.Swap(true) }

// ClaimWake implements core.Port: the producer's test-and-set.
func (p *pickPort) ClaimWake() bool { return !p.TASAwake() }

// Sem implements core.Port.
func (p *pickPort) Sem() core.SemID { return p.g.recvs[p.bind.cur].id }

// Refusing implements core.Port: shutdown, a sticky client's
// dead pin, or a fully dead group all make new sends fail fast.
func (p *pickPort) Refusing() bool {
	if p.g.refusing() {
		return true
	}
	if p.sticky && p.g.dead[p.pin()].Load() {
		return true
	}
	return p.g.allDead()
}

// Closed implements core.Port.
func (p *pickPort) Closed() bool {
	if p.g.recvs[p.pin()].closed.Load() {
		return true
	}
	return p.sticky && p.g.dead[p.pin()].Load()
}

// PeerDead implements core.Port: it decides whether a refused
// send surfaces ErrPeerDead (this client's shard died) rather than
// ErrShutdown.
func (p *pickPort) PeerDead() bool {
	if p.sticky && p.g.dead[p.pin()].Load() {
		return true
	}
	return p.g.allDead()
}

// clientRcvPort is a client's reply endpoint: the fan-in over its
// reply lanes from every shard. Its closed/dead view folds in the
// death of the shard owed the in-flight reply (bind.cur): Send is
// synchronous, so at most one reply is outstanding, and it is owed by
// exactly that shard — when the sweeper declares it dead, the parked
// wait must end in ErrPeerDead instead of sleeping forever.
type clientRcvPort struct {
	g     *group
	ch    *Channel
	lanes *queue.Lanes // ch.q: the client's fan-in over its reply lanes
	bind  *clientBind
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
	return p.ch.closed.Load() || p.g.dead[p.bind.cur].Load()
}

// PeerDead implements core.Port.
func (p *clientRcvPort) PeerDead() bool {
	return p.ch.dead.Load() || p.g.dead[p.bind.cur].Load()
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
	_ core.Port = (*pickPort)(nil)
	_ core.Port = (*clientRcvPort)(nil)
	_ core.Port = (*lanePort)(nil)
	_ core.Port = (*shardRecvPort)(nil)
)
