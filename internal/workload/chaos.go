package workload

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/fault"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
	"ulipc/internal/queue"
)

// The chaos harness: the live client/server workload run under seeded
// fault injection with the recovery sweeper on. A cell passes when it
// stays LIVE — every participant either completes its script, dies to
// an injected crash, or observes its peer's death and returns — and
// LEAK-FREE: after teardown every shm pool holds exactly the refs it
// started with, crashes notwithstanding. Throughput is explicitly not
// the point; the cell's wall-clock is dominated by recovery latency.

// ChaosConfig describes one chaos cell. The zero value of every rate
// disables that fault class; Seed makes the cell reproducible.
type ChaosConfig struct {
	Alg     core.Algorithm
	Clients int
	Msgs    int // per client

	// Seed drives every per-actor fault stream; the same seed and
	// topology replay the same faults.
	Seed int64

	// CrashRate is the per-draw probability of an injected crash at each
	// crashpoint (queue critical sections, semaphore ops, actor bodies).
	// The crash budget is half the participants, so the cell keeps
	// survivors.
	CrashRate float64

	// DropRate/DupRate/DelayRate mutate wake-up Vs: swallowed, doubled,
	// or delivered late.
	DropRate  float64
	DupRate   float64
	DelayRate float64

	// Watchdog bounds the whole cell (default 30s): if any participant
	// is still blocked past it, the cell is deadlocked — the failure the
	// recovery layer exists to prevent.
	Watchdog time.Duration

	// PaySize, when > 0, attaches a leased payload block to every echo:
	// the system is built with a slab arena and the cell additionally
	// audits lease conservation — after teardown every block must be
	// back in the arena, crashes mid-lease notwithstanding.
	PaySize int
}

// The fixed shape of every chaos cell: request and reply queues of 64
// slots, the default spin budget, and a recovery sweep every 200µs.
const (
	chaosQueueCap = 64
	chaosSweep    = 200 * time.Microsecond
)

func (c *ChaosConfig) defaults() error {
	if c.Clients < 1 {
		return fmt.Errorf("workload: chaos cell needs at least 1 client")
	}
	if c.Msgs < 1 {
		return fmt.Errorf("workload: chaos cell needs at least 1 message")
	}
	if c.Watchdog <= 0 {
		c.Watchdog = 30 * time.Second
	}
	return nil
}

// options is the livebind configuration every chaos cell shares.
func (c *ChaosConfig) options(ms *metrics.Set) livebind.Options {
	maxSpin, _ := tuneFor(c.Alg, core.DefaultMaxSpin, 0)
	return livebind.Options{
		Alg:        c.Alg,
		MaxSpin:    maxSpin,
		Clients:    c.Clients,
		QueueCap:   chaosQueueCap,
		BlockSlots: paySlots(c.PaySize, c.Clients),
		SleepScale: time.Millisecond,
		Metrics:    ms,
	}
}

// ChaosResult is one cell's outcome, JSON-ready for the chaos report.
type ChaosResult struct {
	Label   string `json:"label"`
	Alg     string `json:"alg"`
	Clients int    `json:"clients"`
	Seed    int64  `json:"seed"`

	Completed int64 `json:"completed"` // validated round trips
	Aborted   int   `json:"aborted"`   // clients ended early (crash or peer death)

	// Injected fault tallies (from the injector).
	Crashes    int64 `json:"crashes"`
	WakeDrops  int64 `json:"wake_drops"`
	WakeDups   int64 `json:"wake_dups"`
	WakeDelays int64 `json:"wake_delays"`

	// Recovery tallies (from the sweeper's counters).
	PeerDeaths   int64 `json:"peer_deaths"`
	LockReclaims int64 `json:"lock_reclaims"`
	OrphanMsgs   int64 `json:"orphan_msgs"`
	OrphanRefs   int64 `json:"orphan_refs"`
	OrphanBlocks int64 `json:"orphan_blocks,omitempty"`
	WakeRescues  int64 `json:"wake_rescues"`

	// Failure modes. Deadlocked: the watchdog expired with participants
	// still blocked. PoolLeaked: refs missing from (positive) or
	// double-freed into (negative) the shm pools after teardown.
	// BlockLeaked is the payload analogue — blocks missing from the slab
	// arena after teardown and reclaim (payload cells only).
	Deadlocked  bool   `json:"deadlocked"`
	PoolLeaked  int64  `json:"pool_leaked"`
	BlockLeaked int64  `json:"block_leaked,omitempty"`
	Error       string `json:"error,omitempty"`

	// Overload tallies, set by the overload-kill cell (the kill lands
	// while admission rejects and deadline sheds are in flight).
	Sheds     int64 `json:"sheds,omitempty"`
	Overloads int64 `json:"overloads,omitempty"`

	// PaySize is set on payload cells (0 = bare 24-byte messages).
	PaySize int `json:"pay_size,omitempty"`

	// Shards is set on server-group shard-kill cells (0 = classic cell).
	Shards int `json:"shards,omitempty"`
}

// newChaosResult starts a cell's result under label, suffixed with the
// payload size on a payload cell.
func newChaosResult(cfg ChaosConfig, label string) ChaosResult {
	if cfg.PaySize > 0 {
		label += fmt.Sprintf("/p%d", cfg.PaySize)
	}
	return ChaosResult{Label: label, Alg: cfg.Alg.String(), Clients: cfg.Clients, Seed: cfg.Seed, PaySize: cfg.PaySize}
}

// finish is the chaos cells' common verdict: it copies the recovery
// and overload counters into res, then fails the cell on a deadlock, a
// leak, any of fail, or any noted error.
func (c *cell) finish(res *ChaosResult, ms *metrics.Set, fail ...string) error {
	total := ms.Total()
	res.PeerDeaths = total.PeerDeaths
	res.LockReclaims = total.LockReclaims
	res.OrphanMsgs = total.OrphanMsgs
	res.OrphanRefs = total.OrphanRefs
	res.OrphanBlocks = total.OrphanBlocks
	res.WakeRescues = total.WakeRescues
	res.Sheds = total.Sheds
	res.Overloads = total.Overloads
	c.mu.Lock()
	res.Aborted = c.aborted
	res.Deadlocked = c.deadlock
	c.mu.Unlock()
	if res.PoolLeaked != 0 {
		fail = append(fail, fmt.Sprintf("pool leak: %d refs unaccounted for", res.PoolLeaked))
	}
	if res.BlockLeaked != 0 {
		fail = append(fail, fmt.Sprintf("payload leak: %d blocks unaccounted for", res.BlockLeaked))
	}
	if f := c.failures(fail...); len(f) > 0 {
		res.Error = fmt.Sprintf("%v", f)
		return fmt.Errorf("chaos cell %s: %v", res.Label, f)
	}
	return nil
}

// RunChaosCell executes one seeded chaos cell and returns its result.
// The returned error is non-nil when the cell violated a hard
// invariant: deadlock, a pool leak, a validation mismatch, or a panic
// that was not an injected fault.
func RunChaosCell(cfg ChaosConfig) (ChaosResult, error) {
	if err := cfg.defaults(); err != nil {
		return ChaosResult{}, err
	}
	plan := fault.Plan{
		Seed:         cfg.Seed,
		DropWake:     cfg.DropRate,
		DupWake:      cfg.DupRate,
		DelayWake:    cfg.DelayRate,
		WakeDelayDur: 100 * time.Microsecond,
		MaxCrashes:   (cfg.Clients + 1) / 2,
	}
	for _, p := range []fault.Point{
		fault.PtAfterAlloc, fault.PtEnqueueLocked, fault.PtDequeueLocked,
		fault.PtBeforeFree, fault.PtWake, fault.PtBlock, fault.PtBody,
	} {
		plan.Crash[p] = cfg.CrashRate
	}
	inj := fault.NewInjector(plan)
	ms := metrics.NewSet()

	// Two-lock queues on BOTH legs: the chaos cell wants every enqueue
	// and dequeue walking the recoverable critical sections, so the SPSC
	// reply default (no locks, nothing to crash in) is deliberately
	// overridden.
	opts := cfg.options(ms)
	opts.QueueKind, opts.MPMCReplies = queue.KindTwoLock, true
	opts.Faults = inj
	opts.Recovery = &livebind.RecoveryOptions{SweepInterval: chaosSweep}
	sys, err := livebind.NewSystem(opts)
	if err != nil {
		return ChaosResult{}, err
	}
	cls := make([]*core.Client, cfg.Clients)
	for i := range cls {
		if cls[i], err = sys.Client(i); err != nil {
			return ChaosResult{}, err
		}
	}

	res := newChaosResult(cfg, fmt.Sprintf("chaos/%s/%dc/seed%d", cfg.Alg, cfg.Clients, cfg.Seed))
	c := newCell(cfg.Watchdog)
	defer c.cancel()
	var completed atomic.Int64

	// survive wraps a participant body: an injected crash panic is
	// reported to the lifetable (the FUTEX_OWNER_DIED analogue) and the
	// goroutine dies in place; any other panic is a real bug.
	survive := func(body func()) {
		defer func() {
			if v := recover(); v != nil {
				if !sys.ReportCrash(v) {
					panic(v)
				}
			}
		}()
		body()
	}

	// Payload cells route echoes through the OpWork handler so the
	// server side of the lease discipline (claim + re-attach) is under
	// fire too: a crash between the claim and the reply leaves the block
	// tagged by the server, which only the sweeper's owner walk can
	// recover.
	srv := sys.Server()
	var work func(*core.Msg)
	if cfg.PaySize > 0 {
		work = echoPayload(srv)
	}
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		survive(func() {
			_, err := srv.ServeCtx(c.ctx, work)
			c.noteExit("server", err)
		})
	}()

	// pos tracks each client's script position (last protocol call) so a
	// deadlocked cell can name who was stuck where — the first question
	// any chaos failure raises.
	pos := make([]string, cfg.Clients)
	setPos := func(i int, s string) { c.mu.Lock(); pos[i] = s; c.mu.Unlock() }

	// Every client connects before any runs its script, as in the live
	// runner: the server stops once every connected client has
	// disconnected, so a client that got through its whole script before
	// a slow peer's connect arrived would take the server away from that
	// peer. A client that dies or fails before connecting still arrives
	// (on exit), so it never holds the others back.
	var connected, wg sync.WaitGroup
	connected.Add(cfg.Clients)
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			var once sync.Once
			arrive := func() { once.Do(connected.Done) }
			defer arrive()
			fh := cl.A.(*livebind.Actor).FH
			survive(func() {
				// An injected crash (panic) deliberately skips pe.close so
				// the dead client strands its lease — the sweeper's owner
				// walk must recover it or the block audit fails the cell.
				pe := &payEcho{cl: cl, size: cfg.PaySize}
				setPos(i, "connect")
				if _, err := cl.SendCtx(c.ctx, core.Msg{Op: core.OpConnect}); err != nil {
					setPos(i, fmt.Sprintf("connect-err:%v", err))
					c.end(fmt.Sprintf("client%d connect", i), err)
					return
				}
				arrive()
				connected.Wait()
				for j := 0; j < cfg.Msgs; j++ {
					fh.Crashpoint(fault.PtBody)
					setPos(i, fmt.Sprintf("send %d", j))
					m := core.Msg{Op: core.OpEcho, Seq: int32(j), Val: float64(j)}
					var ans core.Msg
					var err error
					if cfg.PaySize > 0 {
						m.Op = core.OpWork
						ans, err = pe.echo(c.ctx, m)
					} else {
						ans, err = cl.SendCtx(c.ctx, m)
					}
					if err != nil {
						setPos(i, fmt.Sprintf("send %d err:%v", j, err))
						pe.close()
						c.end(fmt.Sprintf("client%d send %d", i, j), err)
						return
					}
					if ans.Seq != int32(j) || ans.Val != float64(j) {
						c.noteErr("client%d: reply mismatch at %d: %+v", i, j, ans)
						pe.close()
						return
					}
					completed.Add(1)
				}
				pe.close()
				setPos(i, "disconnect")
				if _, err := cl.SendCtx(c.ctx, core.Msg{Op: core.OpDisconnect}); err != nil {
					setPos(i, fmt.Sprintf("disconnect-err:%v", err))
					c.end(fmt.Sprintf("client%d disconnect", i), err)
					return
				}
				setPos(i, "done")
			})
			c.mu.Lock()
			pos[i] += " [exited]"
			c.mu.Unlock()
		}(i, cl)
	}
	c.join(&wg)
	c.teardown(sys, &swg) // also halts the sweeper after a final sweep

	// Pool-leak audit: every two-lock pool must be whole again. A dead
	// actor's lock, cached ref, or unlinked node that escaped recovery
	// shows up here; with queues drained, crashes reclaimed and caches
	// spilled, so does every payload block not back in the arena.
	res.PoolLeaked, res.BlockLeaked = c.auditPools(sys, cfg.Clients)
	counts := inj.Counts()
	res.Completed = completed.Load()
	res.Crashes = counts.Crashes
	res.WakeDrops = counts.WakeDrops
	res.WakeDups = counts.WakeDups
	res.WakeDelays = counts.WakeDelays
	var fail []string
	if c.deadlocked() {
		c.mu.Lock()
		fail = append(fail, fmt.Sprintf("client positions: %v", pos))
		c.mu.Unlock()
	}
	return res, c.finish(&res, ms, fail...)
}

// RunChaosShardKill runs the server-group fault cell: a sharded system
// (every shard the only consumer of its own clients) in which one shard
// is crashed mid-run. The cell passes when the blast radius is exactly
// the dead shard: every client homed to it observes ErrPeerDead (a
// parked send is released when the sweeper marks its reply channel,
// whose one producer was the dead shard, peer-dead), every other
// client completes its full script through the surviving shards, and
// the dead shard's request lanes are drained by the sweeper's orphan
// pass. Deadlock anywhere fails the cell.
func RunChaosShardKill(cfg ChaosConfig, shards int) (ChaosResult, error) {
	if err := cfg.defaults(); err != nil {
		return ChaosResult{}, err
	}
	if shards < 2 {
		return ChaosResult{}, fmt.Errorf("workload: shard-kill cell needs at least 2 shards")
	}
	if cfg.Clients < shards {
		return ChaosResult{}, fmt.Errorf("workload: shard-kill cell needs a client per shard")
	}
	const batch = 8
	ms := metrics.NewSet()
	opts := cfg.options(ms)
	opts.Recovery = &livebind.RecoveryOptions{SweepInterval: chaosSweep}
	sys, err := livebind.NewSystemGroup(shards, opts)
	if err != nil {
		return ChaosResult{}, err
	}
	srvs, err := sys.ShardServers()
	if err != nil {
		return ChaosResult{}, err
	}
	cls := make([]*core.Client, cfg.Clients)
	for i := range cls {
		if cls[i], err = sys.Client(i); err != nil {
			return ChaosResult{}, err
		}
	}

	res := newChaosResult(cfg, fmt.Sprintf("chaos/shardkill/%s/%dc/%ds", cfg.Alg, cfg.Clients, shards))
	res.Shards = shards
	c := newCell(cfg.Watchdog)
	defer c.cancel()
	var completed atomic.Int64

	const victim = 0
	victimCtx, killVictim := context.WithCancel(c.ctx)
	defer killVictim()
	var swg sync.WaitGroup
	for sh, srv := range srvs {
		swg.Add(1)
		go func(sh int, sv *core.Server) {
			defer swg.Done()
			ctx := c.ctx
			if sh == victim {
				ctx = victimCtx
			}
			_, err := sv.ServeBatchCtx(ctx, nil, batch)
			c.noteExit(fmt.Sprintf("shard%d", sh), err)
		}(sh, srv)
	}

	// Client i is homed to shard i%shards. Clients of
	// the victim send one warm-up batch (proving the shard served), hold
	// at a gate while the harness crashes it, then send again — the send
	// that MUST surface ErrPeerDead. Survivor clients run their scripts
	// uninterrupted.
	warm := make(chan struct{}, cfg.Clients)
	killed := make(chan struct{})
	sendBatch := func(cl *core.Client, base, k int) error {
		if err := echoBatch(c.ctx, cl, make([]core.Msg, 0, k), base, k); err != nil {
			return err
		}
		completed.Add(int64(k))
		return nil
	}
	victimClients := 0
	var wg sync.WaitGroup
	for i, cl := range cls {
		onVictim := i%shards == victim
		if onVictim {
			victimClients++
		}
		wg.Add(1)
		go func(i int, cl *core.Client, onVictim bool) {
			defer wg.Done()
			j := 0
			if onVictim {
				if err := sendBatch(cl, j, batch); err != nil {
					c.noteErr("client%d warm-up: %v", i, err)
					warm <- struct{}{}
					return
				}
				j += batch
				warm <- struct{}{}
				<-killed
			}
			for ; j < cfg.Msgs; j += batch {
				if err := sendBatch(cl, j, min(batch, cfg.Msgs-j)); err != nil {
					if graceful(err) && !onVictim {
						c.noteErr("client%d (survivor, shard %d): spurious %v", i, i%shards, err)
					}
					c.end(fmt.Sprintf("client%d at %d", i, j), err)
					return
				}
			}
			if onVictim {
				// A victim client whose post-kill sends all succeeded saw
				// neither ErrPeerDead nor the recovery path — the kill
				// landed after its script; the cell proves nothing then.
				c.noteErr("client%d: completed despite its shard being killed", i)
			}
		}(i, cl, onVictim)
	}

	// Crash the victim once each of its clients has a served warm-up
	// batch (or the watchdog ended the wait): stop its serve loop,
	// report the actor dead, and force a sweep so recovery (peer-death
	// marking, lane drain, compensating client wakes) runs before the
	// held clients send again.
	for w := 0; w < victimClients; w++ {
		select {
		case <-warm:
		case <-c.ctx.Done():
		}
	}
	killVictim()
	sys.KillActor(srvs[victim].A.(*livebind.Actor).ID)
	sys.SweepNow()
	close(killed)
	c.join(&wg)

	var fail []string
	if !sys.ShardDead(victim) {
		fail = append(fail, fmt.Sprintf("shard %d not marked dead after kill", victim))
	}
	for sh := 1; sh < shards; sh++ {
		if sys.ShardDead(sh) {
			fail = append(fail, fmt.Sprintf("surviving shard %d marked dead", sh))
		}
	}
	sys.SweepNow() // final orphan pass over the dead shard's lanes
	if !sys.ShardChannel(victim).Queue().Empty() {
		fail = append(fail, fmt.Sprintf("dead shard %d still holds undrained requests", victim))
	}
	c.teardown(sys, &swg)

	res.Completed = completed.Load()
	c.mu.Lock()
	aborted := c.aborted
	c.mu.Unlock()
	if aborted != victimClients {
		fail = append(fail, fmt.Sprintf("aborted %d clients, want exactly the %d homed to the dead shard", aborted, victimClients))
	}
	return res, c.finish(&res, ms, fail...)
}

// ChaosOptions configures a chaos sweep over the protocol matrix.
type ChaosOptions struct {
	Algs    []core.Algorithm // default all five protocols
	Clients []int            // default {2, 4, 8}
	Msgs    int              // per client; default 200
	Seed    int64            // base seed; cell i uses Seed+i

	// Shards lists the server-group sizes to run a shard-kill cell at
	// (one cell per alg × size, after the payload cells). Default {2}.
	Shards []int

	// PaySizes lists payload sizes to run leak-audited payload cells at
	// (one cell per alg × size at the largest client count, after the
	// classic matrix). Empty disables them.
	PaySizes []int

	Watchdog time.Duration // per cell; default 30s
}

// The fault rates of every classic and payload cell of a sweep.
const (
	sweepCrashRate = 0.02
	sweepDropRate  = 0.05
	sweepDupRate   = 0.02
	sweepDelayRate = 0.02
)

func (o *ChaosOptions) defaults() {
	if len(o.Algs) == 0 {
		o.Algs = core.Algorithms()
	}
	if len(o.Clients) == 0 {
		o.Clients = []int{2, 4, 8}
	}
	if o.Msgs <= 0 {
		o.Msgs = 200
	}
	if len(o.Shards) == 0 {
		o.Shards = []int{2}
	}
	if o.Watchdog <= 0 {
		o.Watchdog = 30 * time.Second
	}
}

// ChaosReport is the chaos sweep document (BENCH_chaos.json).
type ChaosReport struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	BaseSeed    int64         `json:"base_seed"`
	MsgsPerCli  int           `json:"msgs_per_client"`
	Cells       []ChaosResult `json:"cells"`
}

// RunChaosBench sweeps the protocol matrix under seeded fault
// injection: the classic cells (alg × clients), then the payload cells
// (size × alg at the largest client count), the shard-kill cells (alg
// × shards) and the overload-kill cells (one per alg); cell i is seeded
// opts.Seed+i. Every cell runs to completion regardless of earlier
// failures; the combined error names each violated cell. progress,
// when non-nil, receives one line per cell.
func RunChaosBench(opts ChaosOptions, progress io.Writer) (*ChaosReport, error) {
	opts.defaults()
	rep := &ChaosReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		BaseSeed:    opts.Seed,
		MsgsPerCli:  opts.Msgs,
	}
	type sweepCell struct {
		cfg ChaosConfig
		run func(ChaosConfig) (ChaosResult, error)
	}
	var cells []sweepCell
	widest := opts.Clients[len(opts.Clients)-1]
	faulty := func(alg core.Algorithm, clients, paySize int) sweepCell {
		return sweepCell{ChaosConfig{
			Alg: alg, Clients: clients, Msgs: opts.Msgs, Watchdog: opts.Watchdog, PaySize: paySize,
			CrashRate: sweepCrashRate, DropRate: sweepDropRate, DupRate: sweepDupRate, DelayRate: sweepDelayRate,
		}, RunChaosCell}
	}
	for _, alg := range opts.Algs {
		for _, n := range opts.Clients {
			cells = append(cells, faulty(alg, n, 0))
		}
	}
	for _, size := range opts.PaySizes {
		for _, alg := range opts.Algs {
			if size > 0 {
				cells = append(cells, faulty(alg, widest, size))
			}
		}
	}
	for _, alg := range opts.Algs {
		for _, shards := range opts.Shards {
			cells = append(cells, sweepCell{
				ChaosConfig{Alg: alg, Clients: max(2*shards, widest), Msgs: opts.Msgs, Watchdog: opts.Watchdog},
				func(cfg ChaosConfig) (ChaosResult, error) { return RunChaosShardKill(cfg, shards) },
			})
		}
	}
	for _, alg := range opts.Algs {
		// Full-tilt sends are cheap; the storm needs volume — with too few
		// messages the blast is over before anything queues long enough to
		// shed, and a cell that never overloads proves nothing.
		cells = append(cells, sweepCell{
			ChaosConfig{Alg: alg, Clients: 4, Msgs: max(4*opts.Msgs, 2000), Watchdog: opts.Watchdog, PaySize: 64},
			RunChaosOverloadKill,
		})
	}

	var failures []error
	for i, sc := range cells {
		sc.cfg.Seed = opts.Seed + int64(i)
		res, err := sc.run(sc.cfg)
		rep.Cells = append(rep.Cells, res)
		if err != nil {
			failures = append(failures, err)
		}
		if progress == nil {
			continue
		}
		if err != nil {
			fmt.Fprintf(progress, "%-24s FAILED: %v\n", res.Label, err)
		} else {
			fmt.Fprintf(progress, "%-24s ok: %d rtts, %d aborted, %d crashes, %d peer-deaths, %d reclaims, %d orphans, %d rescues, %d sheds, %d rejects, 0 leaked\n",
				res.Label, res.Completed, res.Aborted, res.Crashes, res.PeerDeaths, res.LockReclaims,
				res.OrphanMsgs+res.OrphanRefs+res.OrphanBlocks, res.WakeRescues, res.Sheds, res.Overloads)
		}
	}
	return rep, errors.Join(failures...)
}

// WriteJSON emits the chaos report as indented JSON.
func (r *ChaosReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
