package workload

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
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
	Alg      core.Algorithm
	Clients  int
	Msgs     int // per client
	QueueCap int
	MaxSpin  int

	// Seed drives every per-actor fault stream; the same seed and
	// topology replay the same faults.
	Seed int64

	// CrashRate is the per-draw probability of an injected crash at each
	// crashpoint (queue critical sections, semaphore ops, actor bodies).
	CrashRate float64

	// MaxCrashes caps the total injected crashes (the crash budget);
	// 0 defaults to half the participants so the cell keeps survivors.
	MaxCrashes int

	// DropRate/DupRate/DelayRate mutate wake-up Vs: swallowed, doubled,
	// or delivered late.
	DropRate  float64
	DupRate   float64
	DelayRate float64

	// Watchdog bounds the whole cell (default 30s): if any participant
	// is still blocked past it, the cell is deadlocked — the failure the
	// recovery layer exists to prevent.
	Watchdog time.Duration

	// SweepInterval is the recovery sweeper period (default 200µs).
	SweepInterval time.Duration

	// PaySize, when > 0, attaches a leased payload block to every echo:
	// the system is built with a slab arena and the cell additionally
	// audits lease conservation — after teardown every block must be
	// back in the arena, crashes mid-lease notwithstanding.
	PaySize int
}

func (c *ChaosConfig) defaults() error {
	if c.Clients < 1 {
		return fmt.Errorf("workload: chaos cell needs at least 1 client")
	}
	if c.Msgs < 1 {
		return fmt.Errorf("workload: chaos cell needs at least 1 message")
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.MaxSpin <= 0 {
		c.MaxSpin = core.DefaultMaxSpin
	}
	if c.Watchdog <= 0 {
		c.Watchdog = 30 * time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = 200 * time.Microsecond
	}
	if c.MaxCrashes <= 0 {
		c.MaxCrashes = (c.Clients + 1) / 2
	}
	return nil
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
		MaxCrashes:   cfg.MaxCrashes,
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
	maxSpin, _ := tuneFor(cfg.Alg, cfg.MaxSpin, 0)
	blockSlots := 0
	if cfg.PaySize > 0 {
		blockSlots = 4 * (cfg.Clients + 1)
		if blockSlots < 32 {
			blockSlots = 32
		}
	}
	sys, err := livebind.NewSystem(livebind.Options{
		Alg:        cfg.Alg,
		MaxSpin:    maxSpin,
		Clients:    cfg.Clients,
		QueueCap:   cfg.QueueCap,
		QueueKind:  queue.KindTwoLock,
		BlockSlots: blockSlots,
		SleepScale: time.Millisecond,
		Metrics:    ms,
	},
		livebind.WithReplyKind(queue.KindTwoLock),
		livebind.WithFaults(inj),
		livebind.WithRecovery(livebind.RecoveryOptions{SweepInterval: cfg.SweepInterval}),
	)
	if err != nil {
		return ChaosResult{}, err
	}

	label := fmt.Sprintf("chaos/%s/%dc/seed%d", cfg.Alg, cfg.Clients, cfg.Seed)
	if cfg.PaySize > 0 {
		label += fmt.Sprintf("/p%d", cfg.PaySize)
	}
	res := ChaosResult{
		Label:   label,
		Alg:     cfg.Alg.String(),
		Clients: cfg.Clients,
		Seed:    cfg.Seed,
		PaySize: cfg.PaySize,
	}
	rootCtx, cancel := context.WithTimeout(context.Background(), cfg.Watchdog)
	defer cancel()

	var (
		mu        sync.Mutex
		completed int64
		aborted   int
		deadlock  bool
		hardErrs  []string
	)
	noteErr := func(format string, args ...any) {
		mu.Lock()
		if len(hardErrs) < 8 {
			hardErrs = append(hardErrs, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}
	// endOfRound classifies a client's failed protocol call: injected
	// peer death and shutdown end the participant gracefully; a watchdog
	// expiry is the deadlock the cell exists to detect; anything else is
	// a bug.
	endOfRound := func(who string, err error) {
		switch {
		case errors.Is(err, core.ErrPeerDead), errors.Is(err, core.ErrShutdown):
			mu.Lock()
			aborted++
			mu.Unlock()
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			mu.Lock()
			deadlock = true
			mu.Unlock()
		default:
			noteErr("%s: %v", who, err)
		}
	}
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

	// The server's exit is NOT a liveness criterion: a crashed client
	// never disconnects, so a correct server legitimately waits for work
	// until the harness cancels it. Only non-ctx, non-peer-death server
	// errors are bugs.
	srv := sys.Server()
	// Payload cells route echoes through the OpWork handler so the
	// server side of the lease discipline (claim + re-attach) is under
	// fire too: a crash between the claim and the reply leaves the block
	// tagged by the server, which only the sweeper's owner walk can
	// recover.
	var work func(*core.Msg)
	if cfg.PaySize > 0 {
		work = func(m *core.Msg) {
			p, err := srv.Payload(*m)
			if err != nil {
				m.ClearBlock()
				return
			}
			m.AttachPayload(p)
		}
	}
	serverDone := make(chan struct{})
	go func() {
		defer close(serverDone)
		survive(func() {
			_, err := srv.ServeCtx(rootCtx, work)
			if err != nil && !errors.Is(err, core.ErrPeerDead) && !errors.Is(err, core.ErrShutdown) &&
				!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
				noteErr("server: %v", err)
			}
		})
	}()

	// pos tracks each client's script position (last protocol call) so a
	// deadlocked cell can name who was stuck where — the first question
	// any chaos failure raises.
	pos := make([]string, cfg.Clients)
	setPos := func(i int, s string) { mu.Lock(); pos[i] = s; mu.Unlock() }

	// Every client connects before any runs its script, as in the live
	// runner: the server stops once every connected client has
	// disconnected, so a client that got through its whole script before
	// a slow peer's connect arrived would take the server away from that
	// peer. A client that dies or fails before connecting still arrives
	// (on exit), so it never holds the others back.
	var connected, wg sync.WaitGroup
	connected.Add(cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		cl, err := sys.Client(i)
		if err != nil {
			return res, err
		}
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			var once sync.Once
			arrive := func() { once.Do(connected.Done) }
			defer arrive()
			fh := cl.A.(*livebind.Actor).FH
			survive(func() {
				// An injected crash (panic) deliberately skips closePE so
				// the dead client strands its lease — the sweeper's owner
				// walk must recover it or the block audit fails the cell.
				var pe *payEcho
				if cfg.PaySize > 0 {
					pe = &payEcho{cl: cl, size: cfg.PaySize}
				}
				closePE := func() {
					if pe != nil {
						pe.close()
					}
				}
				setPos(i, "connect")
				if _, err := cl.SendCtx(rootCtx, core.Msg{Op: core.OpConnect}); err != nil {
					setPos(i, fmt.Sprintf("connect-err:%v", err))
					endOfRound(fmt.Sprintf("client%d connect", i), err)
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
					if pe != nil {
						m.Op = core.OpWork
						ans, err = pe.echo(rootCtx, m)
					} else {
						ans, err = cl.SendCtx(rootCtx, m)
					}
					if err != nil {
						setPos(i, fmt.Sprintf("send %d err:%v", j, err))
						closePE()
						endOfRound(fmt.Sprintf("client%d send %d", i, j), err)
						return
					}
					if ans.Seq != int32(j) || ans.Val != float64(j) {
						noteErr("client%d: reply mismatch at %d: %+v", i, j, ans)
						closePE()
						return
					}
					mu.Lock()
					completed++
					mu.Unlock()
				}
				closePE()
				setPos(i, "disconnect")
				if _, err := cl.SendCtx(rootCtx, core.Msg{Op: core.OpDisconnect}); err != nil {
					setPos(i, fmt.Sprintf("disconnect-err:%v", err))
					endOfRound(fmt.Sprintf("client%d disconnect", i), err)
					return
				}
				setPos(i, "done")
			})
			mu.Lock()
			pos[i] += " [exited]"
			mu.Unlock()
		}(i, cl)
	}

	// Join the clients with a grace period past the watchdog: rootCtx
	// expiry should unblock everyone, so a client still stuck after the
	// grace is a hard hang even the context could not break. Then cancel
	// the root context to release the server (which may be correctly
	// waiting for crashed clients that will never disconnect) and hold it
	// to the same grace.
	joined := make(chan struct{})
	go func() { wg.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(cfg.Watchdog + 5*time.Second):
		mu.Lock()
		deadlock = true
		hardErrs = append(hardErrs, "clients still blocked past watchdog+grace")
		mu.Unlock()
	}
	cancel()
	select {
	case <-serverDone:
	case <-time.After(5 * time.Second):
		mu.Lock()
		deadlock = true
		hardErrs = append(hardErrs, "server still blocked after cancellation")
		mu.Unlock()
	}

	shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
	serr := sys.Shutdown(shutCtx) // halts the sweeper after a final sweep
	shutCancel()
	if serr != nil && !errors.Is(serr, context.DeadlineExceeded) {
		noteErr("shutdown: %v", serr)
	}

	// Pool-leak audit: drain what teardown left queued, then every
	// two-lock pool must be whole again — capacity free refs (the +1 of
	// the pool is the queue's resident dummy). A dead actor's lock,
	// cached ref, or unlinked node that escaped recovery shows up here.
	pool := sys.Blocks()
	audit := func(ch *livebind.Channel) {
		tl, ok := ch.Queue().(*queue.TwoLock)
		if !ok {
			return
		}
		if pool != nil {
			// Teardown leftovers may still carry payload leases (a reply
			// to a crashed client the sweeper had no reason to drain):
			// claim-free them alongside their nodes, same race-safe rule
			// as the sweeper's own drain.
			const auditOwner = ^uint32(0)
			queue.DrainFunc(tl, func(m core.Msg) {
				if !m.HasBlock() {
					return
				}
				if ref, _ := m.Block(); pool.ClaimGen(ref, m.BlockGen(), auditOwner) {
					_ = pool.Free(ref)
				}
			})
		} else {
			queue.Drain(tl)
		}
		res.PoolLeaked += int64(tl.Cap()) - tl.Pool().FreeCount()
	}
	audit(sys.ReceiveChannel())
	for i := 0; i < cfg.Clients; i++ {
		audit(sys.ReplyChannel(i))
	}
	// Lease-conservation audit: with queues drained, crashes reclaimed
	// and caches spilled, every payload block must be back in the arena.
	if pool != nil {
		res.BlockLeaked = int64(pool.Capacity()) - pool.TotalFree()
	}

	counts := inj.Counts()
	total := ms.Total()
	res.Completed = completed
	res.Aborted = aborted
	res.Crashes = counts.Crashes
	res.WakeDrops = counts.WakeDrops
	res.WakeDups = counts.WakeDups
	res.WakeDelays = counts.WakeDelays
	res.PeerDeaths = total.PeerDeaths
	res.LockReclaims = total.LockReclaims
	res.OrphanMsgs = total.OrphanMsgs
	res.OrphanRefs = total.OrphanRefs
	res.OrphanBlocks = total.OrphanBlocks
	res.WakeRescues = total.WakeRescues
	res.Deadlocked = deadlock

	var fail []string
	if deadlock {
		mu.Lock()
		stuck := fmt.Sprintf("deadlocked: watchdog expired with participants blocked (clients: %v)", pos)
		mu.Unlock()
		fail = append(fail, stuck)
	}
	if res.PoolLeaked != 0 {
		fail = append(fail, fmt.Sprintf("pool leak: %d refs unaccounted for", res.PoolLeaked))
	}
	if res.BlockLeaked != 0 {
		fail = append(fail, fmt.Sprintf("payload leak: %d blocks unaccounted for", res.BlockLeaked))
	}
	fail = append(fail, hardErrs...)
	if len(fail) > 0 {
		res.Error = fmt.Sprintf("%v", fail)
		return res, fmt.Errorf("chaos cell %s: %v", res.Label, fail)
	}
	return res, nil
}

// RunChaosShardKill runs the server-group fault cell: a sharded system
// (strict lane ownership — stealing is off, so a dead thief cannot
// strand a live victim's messages) in which one shard is crashed
// mid-run. The cell passes when the blast radius is exactly the dead
// shard: every client homed to it observes ErrPeerDead (its parked
// send released by the recovery layer's compensating wake), every
// other client completes its full script through the surviving shards,
// and the dead shard's request lanes are drained by the sweeper's
// orphan pass. Deadlock anywhere fails the cell.
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
	groupSpin, _ := tuneFor(cfg.Alg, cfg.MaxSpin, 0)
	sys, err := livebind.NewSystemGroup(shards, livebind.Options{
		Alg:        cfg.Alg,
		MaxSpin:    groupSpin,
		Clients:    cfg.Clients,
		QueueCap:   cfg.QueueCap,
		SleepScale: time.Millisecond,
		NoSteal:    true,
		Metrics:    ms,
	},
		livebind.WithRecovery(livebind.RecoveryOptions{SweepInterval: cfg.SweepInterval}),
	)
	if err != nil {
		return ChaosResult{}, err
	}

	res := ChaosResult{
		Label:   fmt.Sprintf("chaos/shardkill/%s/%dc/%ds", cfg.Alg, cfg.Clients, shards),
		Alg:     cfg.Alg.String(),
		Clients: cfg.Clients,
		Seed:    cfg.Seed,
		Shards:  shards,
	}
	rootCtx, cancel := context.WithTimeout(context.Background(), cfg.Watchdog)
	defer cancel()

	var (
		mu        sync.Mutex
		completed int64
		aborted   int
		deadlock  bool
		hardErrs  []string
	)
	noteErr := func(format string, args ...any) {
		mu.Lock()
		if len(hardErrs) < 8 {
			hardErrs = append(hardErrs, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	const victim = 0
	srvs, err := sys.ShardServers()
	if err != nil {
		return res, err
	}
	victimCtx, killVictim := context.WithCancel(rootCtx)
	defer killVictim()
	var swg sync.WaitGroup
	for sh, srv := range srvs {
		swg.Add(1)
		go func(sh int, sv *core.Server) {
			defer swg.Done()
			ctx := rootCtx
			if sh == victim {
				ctx = victimCtx
			}
			_, err := sv.ServeBatchCtx(ctx, nil, batch)
			if err != nil && !errors.Is(err, core.ErrPeerDead) && !errors.Is(err, core.ErrShutdown) &&
				!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
				noteErr("shard%d: %v", sh, err)
			}
		}(sh, srv)
	}

	// Client i is homed to shard i%shards by the hash picker. Clients of
	// the victim send one warm-up batch (proving the shard served), hold
	// at a gate while the harness crashes it, then send again — the send
	// that MUST surface ErrPeerDead. Survivor clients run their scripts
	// uninterrupted.
	warm := make(chan struct{}, cfg.Clients)
	killed := make(chan struct{})
	sendBatch := func(cl *core.Client, base, k int) error {
		msgs := make([]core.Msg, 0, k)
		for q := 0; q < k; q++ {
			msgs = append(msgs, core.Msg{Op: core.OpEcho, Seq: int32(base + q), Val: float64(base + q)})
		}
		out, err := cl.SendBatchCtx(rootCtx, msgs)
		if err != nil {
			return err
		}
		if len(out) != k {
			return fmt.Errorf("%d replies, want %d", len(out), k)
		}
		seen := make(map[int32]bool, k)
		for _, m := range out {
			if m.Client != cl.ID || m.Seq < int32(base) || m.Seq >= int32(base+k) ||
				m.Val != float64(m.Seq) || seen[m.Seq] {
				return fmt.Errorf("bad reply %+v", m)
			}
			seen[m.Seq] = true
		}
		mu.Lock()
		completed += int64(k)
		mu.Unlock()
		return nil
	}
	victimClients := 0
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		cl, err := sys.Client(i)
		if err != nil {
			return res, err
		}
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
					noteErr("client%d warm-up: %v", i, err)
					warm <- struct{}{}
					return
				}
				j += batch
				warm <- struct{}{}
				<-killed
			}
			for ; j < cfg.Msgs; j += batch {
				k := batch
				if j+k > cfg.Msgs {
					k = cfg.Msgs - j
				}
				if err := sendBatch(cl, j, k); err != nil {
					switch {
					case errors.Is(err, core.ErrPeerDead), errors.Is(err, core.ErrShutdown):
						mu.Lock()
						aborted++
						mu.Unlock()
						if !onVictim {
							noteErr("client%d (survivor, shard %d): spurious %v", i, i%shards, err)
						}
					case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
						mu.Lock()
						deadlock = true
						mu.Unlock()
					default:
						noteErr("client%d at %d: %v", i, j, err)
					}
					return
				}
			}
			if onVictim {
				// A victim client whose post-kill sends all succeeded saw
				// neither ErrPeerDead nor the recovery path — the kill
				// landed after its script; the cell proves nothing then.
				noteErr("client%d: completed despite its shard being killed", i)
			}
		}(i, cl, onVictim)
	}

	// Crash the victim once each of its clients has a served warm-up
	// batch: stop its serve loop, report the actor dead, and force a
	// sweep so recovery (peer-death marking, lane drain, compensating
	// client wakes) runs before the held clients send again.
	for w := 0; w < victimClients; w++ {
		select {
		case <-warm:
		case <-rootCtx.Done():
			mu.Lock()
			deadlock = true
			mu.Unlock()
		}
	}
	killVictim()
	vid := srvs[victim].A.(*livebind.Actor).ID
	sys.KillActor(vid)
	sys.SweepNow()
	close(killed)

	joined := make(chan struct{})
	go func() { wg.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(cfg.Watchdog + 5*time.Second):
		mu.Lock()
		deadlock = true
		hardErrs = append(hardErrs, "clients still blocked past watchdog+grace")
		mu.Unlock()
	}

	if !sys.ShardDead(victim) {
		noteErr("shard %d not marked dead after kill", victim)
	}
	for sh := 1; sh < shards; sh++ {
		if sys.ShardDead(sh) {
			noteErr("surviving shard %d marked dead", sh)
		}
	}
	sys.SweepNow() // final orphan pass over the dead shard's lanes
	if !sys.ShardChannel(victim).Queue().Empty() {
		noteErr("dead shard %d still holds undrained requests", victim)
	}

	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	serr := sys.Shutdown(shutCtx)
	shutCancel()
	if serr != nil && !errors.Is(serr, context.DeadlineExceeded) {
		noteErr("shutdown: %v", serr)
	}
	cancel()
	sdone := make(chan struct{})
	go func() { swg.Wait(); close(sdone) }()
	select {
	case <-sdone:
	case <-time.After(5 * time.Second):
		mu.Lock()
		deadlock = true
		hardErrs = append(hardErrs, "surviving shards still blocked after shutdown")
		mu.Unlock()
	}

	total := ms.Total()
	res.Completed = completed
	res.Aborted = aborted
	res.PeerDeaths = total.PeerDeaths
	res.LockReclaims = total.LockReclaims
	res.OrphanMsgs = total.OrphanMsgs
	res.OrphanRefs = total.OrphanRefs
	res.WakeRescues = total.WakeRescues
	res.Deadlocked = deadlock

	var fail []string
	if deadlock {
		fail = append(fail, "deadlocked: watchdog expired with participants blocked")
	}
	if aborted != victimClients {
		fail = append(fail, fmt.Sprintf("aborted %d clients, want exactly the %d homed to the dead shard", aborted, victimClients))
	}
	fail = append(fail, hardErrs...)
	if len(fail) > 0 {
		res.Error = fmt.Sprintf("%v", fail)
		return res, fmt.Errorf("chaos cell %s: %v", res.Label, fail)
	}
	return res, nil
}

// ChaosOptions configures a chaos sweep over the protocol matrix.
type ChaosOptions struct {
	Algs    []core.Algorithm // default all four protocols
	Clients []int            // default {2, 4, 8}
	Msgs    int              // per client; default 200
	Seed    int64            // base seed; cell i uses Seed+i

	// Fault rates for every cell; zero values take the defaults noted.
	CrashRate float64 // default 0.02
	DropRate  float64 // default 0.05
	DupRate   float64 // default 0.02
	DelayRate float64 // default 0.02

	// Shards lists the server-group sizes to run a shard-kill cell at
	// (one cell per alg × size, after the classic matrix). Default {2};
	// explicit empty slice via NoShardKill disables them.
	Shards      []int
	NoShardKill bool

	// NoOverloadKill disables the overload-kill cells (one per alg,
	// after the shard-kill cells: a client SIGKILLed mid-overload with
	// sheds in flight, payload leases audited).
	NoOverloadKill bool

	// PaySizes lists payload sizes to run leak-audited payload cells at
	// (one cell per alg × size at the largest client count, after the
	// classic matrix). Empty disables them.
	PaySizes []int

	Watchdog time.Duration // per cell; default 30s
}

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
	if o.CrashRate == 0 {
		o.CrashRate = 0.02
	}
	if o.DropRate == 0 {
		o.DropRate = 0.05
	}
	if o.DupRate == 0 {
		o.DupRate = 0.02
	}
	if o.DelayRate == 0 {
		o.DelayRate = 0.02
	}
	if len(o.Shards) == 0 && !o.NoShardKill {
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
// injection. Every cell runs to completion regardless of earlier
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
	var failures []error
	cell := 0
	for _, alg := range opts.Algs {
		for _, n := range opts.Clients {
			res, err := RunChaosCell(ChaosConfig{
				Alg:       alg,
				Clients:   n,
				Msgs:      opts.Msgs,
				Seed:      opts.Seed + int64(cell),
				CrashRate: opts.CrashRate,
				DropRate:  opts.DropRate,
				DupRate:   opts.DupRate,
				DelayRate: opts.DelayRate,
				Watchdog:  opts.Watchdog,
			})
			cell++
			if err != nil {
				failures = append(failures, err)
			}
			rep.Cells = append(rep.Cells, res)
			if progress != nil {
				if err != nil {
					fmt.Fprintf(progress, "%-24s FAILED: %v\n", res.Label, err)
				} else {
					fmt.Fprintf(progress, "%-24s ok: %d/%d rtts, %d crashes, %d peer-deaths, %d reclaims, %d rescues\n",
						res.Label, res.Completed, int64(n*opts.Msgs), res.Crashes,
						res.PeerDeaths, res.LockReclaims+res.OrphanRefs, res.WakeRescues)
				}
			}
		}
	}
	for _, size := range opts.PaySizes {
		if size <= 0 {
			continue
		}
		for _, alg := range opts.Algs {
			n := opts.Clients[len(opts.Clients)-1]
			res, err := RunChaosCell(ChaosConfig{
				Alg:       alg,
				Clients:   n,
				Msgs:      opts.Msgs,
				Seed:      opts.Seed + int64(cell),
				CrashRate: opts.CrashRate,
				DropRate:  opts.DropRate,
				DupRate:   opts.DupRate,
				DelayRate: opts.DelayRate,
				Watchdog:  opts.Watchdog,
				PaySize:   size,
			})
			cell++
			if err != nil {
				failures = append(failures, err)
			}
			rep.Cells = append(rep.Cells, res)
			if progress != nil {
				if err != nil {
					fmt.Fprintf(progress, "%-24s FAILED: %v\n", res.Label, err)
				} else {
					fmt.Fprintf(progress, "%-24s ok: %d/%d rtts, %d crashes, %d orphan blocks, 0 leaked\n",
						res.Label, res.Completed, int64(n*opts.Msgs), res.Crashes, res.OrphanBlocks)
				}
			}
		}
	}
	if !opts.NoShardKill {
		for _, alg := range opts.Algs {
			for _, shards := range opts.Shards {
				clients := shards * 2
				if max := opts.Clients[len(opts.Clients)-1]; clients < max {
					clients = max
				}
				res, err := RunChaosShardKill(ChaosConfig{
					Alg:      alg,
					Clients:  clients,
					Msgs:     opts.Msgs,
					Seed:     opts.Seed + int64(cell),
					Watchdog: opts.Watchdog,
				}, shards)
				cell++
				if err != nil {
					failures = append(failures, err)
				}
				rep.Cells = append(rep.Cells, res)
				if progress != nil {
					if err != nil {
						fmt.Fprintf(progress, "%-24s FAILED: %v\n", res.Label, err)
					} else {
						fmt.Fprintf(progress, "%-24s ok: %d rtts, %d clients lost their shard, %d peer-deaths, %d orphans\n",
							res.Label, res.Completed, res.Aborted, res.PeerDeaths, res.OrphanMsgs)
					}
				}
			}
		}
	}
	if !opts.NoOverloadKill {
		// Full-tilt sends are cheap; the storm needs volume — with too few
		// messages the blast is over before anything queues long enough to
		// shed, and a cell that never overloads proves nothing.
		overloadMsgs := opts.Msgs * 4
		if overloadMsgs < 2000 {
			overloadMsgs = 2000
		}
		for _, alg := range opts.Algs {
			res, err := RunChaosOverloadKill(ChaosConfig{
				Alg:      alg,
				Clients:  4,
				Msgs:     overloadMsgs,
				Seed:     opts.Seed + int64(cell),
				Watchdog: opts.Watchdog,
				PaySize:  64,
			})
			cell++
			if err != nil {
				failures = append(failures, err)
			}
			rep.Cells = append(rep.Cells, res)
			if progress != nil {
				if err != nil {
					fmt.Fprintf(progress, "%-24s FAILED: %v\n", res.Label, err)
				} else {
					fmt.Fprintf(progress, "%-24s ok: %d rtts, %d sheds, %d rejects, %d orphan blocks, 0 leaked\n",
						res.Label, res.Completed, res.Sheds, res.Overloads, res.OrphanBlocks)
				}
			}
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
