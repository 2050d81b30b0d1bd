package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
	"ulipc/internal/shm"
)

// The cross-process harness: real OS processes exchanging messages
// through a memfd segment with futex wake-ups. The parent creates the
// segment and re-executes its own binary once per participant (the
// classic helper-process pattern): a worker recognises itself by
// ULIPC_PROC_ROLE in the environment, maps the inherited fd, runs its
// script against livebind's proc binding, and reports one JSON line on
// stdout. Any binary whose main (or TestMain) calls MaybeProcWorker
// can host workers — cmd/ipcbench and this package's tests both do.

const (
	procRoleEnv = "ULIPC_PROC_ROLE"
	procCfgEnv  = "ULIPC_PROC_CFG"
	// procSegFD is where the inherited memfd lands in a worker:
	// ExtraFiles[0] is always descriptor 3.
	procSegFD = 3

	procRoleServer = "server"
	procRoleClient = "client"
)

// ProcConfig describes one cross-process cell.
type ProcConfig struct {
	Alg     core.Algorithm
	Clients int
	Msgs    int // per client; 0 = unbounded (chaos cells run until error)

	// PaySize arms the payload path: every echo carries that many bytes
	// in a leased shared-memory block. PayCopy selects the copy-mode
	// baseline (memcpy in and out of the blocks plus a server-side
	// re-allocation) against which the zero-copy default is A/B'd.
	PaySize int
	PayCopy bool

	// Watchdog bounds every worker (default 60s): a cell that trips it
	// is deadlocked, which is a hard failure.
	Watchdog time.Duration

	// KillServerAfter arms the chaos cell: the parent SIGKILLs the
	// server that long after the clients start (default 150ms, plus
	// seeded jitter when Seed is set).
	KillServerAfter time.Duration
	Seed            int64
}

// The fixed shape of every proc cell: 64-slot lanes, the default spin
// budget, and a 1ms queue-full nap. The heartbeat lease is short enough
// that a chaos cell whose pid probes lie still detects the death well
// inside the watchdog (the probe usually fires first).
const (
	procRingCap = 64
	procLease   = 750 * time.Millisecond
)

func (c *ProcConfig) defaults() error {
	if c.Clients < 1 {
		return fmt.Errorf("workload: proc cell needs at least 1 client")
	}
	if c.Watchdog <= 0 {
		c.Watchdog = 60 * time.Second
	}
	return nil
}

// procWireCfg is the parent→worker configuration, serialised into the
// environment. Durations travel as nanoseconds.
type procWireCfg struct {
	Alg        string `json:"alg"`
	Clients    int    `json:"clients"`
	Msgs       int    `json:"msgs"`
	ClientID   int    `json:"client_id"`
	WatchdogNs int64  `json:"watchdog_ns"`
	PaySize    int    `json:"pay_size,omitempty"`
	PayCopy    bool   `json:"pay_copy,omitempty"`
}

// procWorkerResult is the worker→parent report: one JSON line on
// stdout.
type procWorkerResult struct {
	Role      string           `json:"role"`
	ClientID  int              `json:"client_id"`
	Backend   string           `json:"backend"`
	Pid       int              `json:"pid"`
	Served    int64            `json:"served"`
	Sent      int64            `json:"sent"`
	ElapsedNs int64            `json:"elapsed_ns"`
	PeerDead  bool             `json:"peer_dead"`
	DetectNs  int64            `json:"detect_ns"`
	Hung      bool             `json:"hung"`
	Err       string           `json:"err,omitempty"`
	Metrics   metrics.Snapshot `json:"metrics"`
}

// MaybeProcWorker turns the current process into a cross-process
// worker when ULIPC_PROC_ROLE is set, and never returns in that case.
// Call it first thing in main (before flag parsing) of any binary that
// spawns proc cells; in tests, call it from TestMain.
func MaybeProcWorker() {
	role := os.Getenv(procRoleEnv)
	if role == "" {
		return
	}
	os.Exit(runProcWorker(role, os.Getenv(procCfgEnv)))
}

// runProcWorker executes one worker role and reports on stdout. The
// exit code is 0 whenever a result was produced — including expected
// failures like observing the server's death — and non-zero only for
// harness errors (bad config, hung past the watchdog).
func runProcWorker(role, cfgJSON string) int {
	res := procWorkerResult{Role: role, Backend: livebind.FutexBackend, Pid: os.Getpid()}
	emit := func() int {
		_ = json.NewEncoder(os.Stdout).Encode(&res)
		if res.Hung || (res.Err != "" && !res.PeerDead) {
			return 1
		}
		return 0
	}
	var wire procWireCfg
	if err := json.Unmarshal([]byte(cfgJSON), &wire); err != nil {
		res.Err = fmt.Sprintf("bad %s: %v", procCfgEnv, err)
		return emit()
	}
	alg, err := core.AlgorithmByName(wire.Alg)
	if err != nil {
		res.Err = err.Error()
		return emit()
	}
	seg, err := shm.MapFDSeg(procSegFD)
	if err != nil {
		res.Err = fmt.Sprintf("map inherited segment: %v", err)
		return emit()
	}
	defer seg.Close()

	m := &metrics.Proc{Name: role}
	opts := livebind.ProcOptions{
		Alg:        alg,
		MaxSpin:    core.DefaultMaxSpin,
		SleepScale: time.Millisecond,
		Lease:      procLease,
		M:          m,
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(wire.WatchdogNs))
	defer cancel()

	switch role {
	case procRoleServer:
		runProcServerRole(ctx, &res, seg, opts, wire)
	case procRoleClient:
		runProcClientRole(ctx, &res, seg, opts, wire)
	default:
		res.Err = fmt.Sprintf("unknown role %q", role)
	}
	res.Metrics = m.Snapshot()
	return emit()
}

func runProcServerRole(ctx context.Context, res *procWorkerResult, seg *shm.Seg, opts livebind.ProcOptions, wire procWireCfg) {
	srv, err := livebind.AttachProcServer(seg, opts)
	if err != nil {
		res.Err = err.Error()
		return
	}
	defer srv.Close()
	t0 := time.Now()
	served, err := procServe(ctx, srv, wire.Clients, wire.PayCopy)
	res.Served = served
	res.ElapsedNs = time.Since(t0).Nanoseconds()
	if err != nil {
		res.Err = err.Error()
		res.PeerDead = errors.Is(err, core.ErrPeerDead)
		res.Hung = errors.Is(err, context.DeadlineExceeded)
	}
}

// procServe is the server loop of a proc cell. It exits after every
// client has disconnected — counting disconnects against the segment
// geometry rather than a live connect balance, because client
// processes start at arbitrary times: with a balance, one fast client
// connecting and disconnecting before the others attach would end the
// loop early.
func procServe(ctx context.Context, srv *livebind.ProcServer, clients int, payCopy bool) (served int64, err error) {
	disconnects := 0
	for disconnects < clients {
		m, err := srv.ReceiveCtx(ctx)
		if err != nil {
			return served, err
		}
		if !srv.ValidClient(m.Client) {
			continue
		}
		switch m.Op {
		case core.OpConnect:
		case core.OpDisconnect:
			disconnects++
		default:
			served++
			if m.HasBlock() {
				procEchoPayload(srv, payCopy, m)
				continue
			}
		}
		srv.Reply(m.Client, m)
	}
	return served, nil
}

// procEchoPayload echoes a payload-carrying request: claim the lease,
// then hand it back — re-leasing the same block (zero-copy), or copying
// into a fresh block first (the copy-mode baseline a copy API would
// force on the server).
func procEchoPayload(srv *livebind.ProcServer, payCopy bool, m core.Msg) {
	p, err := srv.Payload(m)
	if err != nil {
		// The payload was lost to recovery (its sender died and a sweeper
		// reclaimed the block): reply without it rather than forwarding a
		// dangling reference.
		m.ClearBlock()
		srv.Reply(m.Client, m)
		return
	}
	if payCopy {
		if q, qerr := srv.AllocPayload(p.Len()); qerr == nil {
			copy(q.Bytes(), p.Bytes())
			_ = p.Release()
			p = q
		}
	}
	if srv.ReplyPayloadCtx(context.Background(), m.Client, m, p) != nil {
		_ = p.Release()
	}
}

func runProcClientRole(ctx context.Context, res *procWorkerResult, seg *shm.Seg, opts livebind.ProcOptions, wire procWireCfg) {
	res.ClientID = wire.ClientID
	cl, err := livebind.AttachProcClient(seg, wire.ClientID, opts)
	if err != nil {
		res.Err = err.Error()
		return
	}
	defer cl.Close()

	classify := func(err error) {
		res.Err = err.Error()
		switch {
		case errors.Is(err, core.ErrPeerDead):
			res.PeerDead = true
		case errors.Is(err, context.DeadlineExceeded):
			res.Hung = true
		}
	}

	t0 := time.Now()
	if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpConnect}); err != nil {
		classify(err)
		if res.PeerDead {
			res.DetectNs = time.Since(t0).Nanoseconds()
		}
		res.ElapsedNs = time.Since(t0).Nanoseconds()
		return
	}
	pe := &payEcho{cl: cl.Client, size: wire.PaySize}
	if wire.PaySize > 0 && wire.PayCopy {
		// Copy-mode scratch: the "user buffer" a copy API would force the
		// payload through (memcpy in before send, memcpy out after receive).
		pe.scratch = make([]byte, wire.PaySize)
		for j := range pe.scratch {
			pe.scratch[j] = byte(j)
		}
	}
	lastOK := time.Now()
	for i := 0; wire.Msgs == 0 || i < wire.Msgs; i++ {
		m := core.Msg{Op: core.OpEcho, Seq: int32(i % (1 << 30)), Val: float64(i%1024) * 1.5}
		var r core.Msg
		var err error
		if wire.PaySize > 0 {
			r, err = pe.echo(ctx, m)
		} else {
			r, err = cl.SendCtx(ctx, m)
		}
		if err != nil {
			classify(err)
			if res.PeerDead {
				res.DetectNs = time.Since(lastOK).Nanoseconds()
			}
			break
		}
		if r.Seq != m.Seq || r.Val != m.Val {
			res.Err = fmt.Sprintf("echo %d corrupted: sent %+v got %+v", i, m, r)
			break
		}
		res.Sent++
		lastOK = time.Now()
	}
	pe.close()
	if res.Err == "" {
		if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpDisconnect}); err != nil {
			classify(err)
		}
	}
	res.ElapsedNs = time.Since(t0).Nanoseconds()
}

// payEcho drives one client's payload echoes. In zero-copy mode one
// block circulates: the request block comes back as the reply block and
// is reused for the next request, so steady state touches no free list.
// In copy mode every exchange allocates, memcpys in, memcpys out, and
// frees — the per-call cost a copy API would impose.
type payEcho struct {
	cl      *core.Client
	size    int
	scratch []byte        // non-nil selects copy mode
	held    *core.Payload // zero-copy: the circulating block
}

func (pe *payEcho) echo(ctx context.Context, m core.Msg) (core.Msg, error) {
	p := pe.held
	pe.held = nil
	if p == nil {
		var err error
		p, err = pe.cl.AllocPayload(pe.size)
		if err != nil {
			// Backpressure (or no arena): degrade to a plain exchange so
			// the loop keeps making progress and still surfaces shutdown
			// or peer death the usual way.
			return pe.cl.SendCtx(ctx, m)
		}
	}
	stamp := byte(m.Seq)
	if pe.scratch != nil {
		pe.scratch[0], pe.scratch[len(pe.scratch)-1] = stamp, stamp
		copy(p.Bytes(), pe.scratch)
	} else {
		b := p.Bytes()
		b[0], b[len(b)-1] = stamp, stamp
	}
	r, rp, err := pe.cl.SendPayload(ctx, m, p)
	if errors.Is(err, core.ErrPayloadLost) {
		// The reply's payload holder died mid-lease and the sweeper
		// reclaimed the block before we could claim it — an expected
		// outcome under chaos, not a protocol failure. The round trip
		// itself succeeded; there is just nothing to verify.
		return r, nil
	}
	if err != nil {
		return r, err
	}
	if rp == nil {
		return r, nil // server dropped a recovery-lost payload: nothing to verify
	}
	b := rp.Bytes()
	if pe.scratch != nil {
		copy(pe.scratch, b)
		b = pe.scratch
	}
	if len(b) == 0 || b[0] != stamp || b[len(b)-1] != stamp {
		_ = rp.Release()
		return r, fmt.Errorf("payload echo corrupted at seq %d", m.Seq)
	}
	if pe.scratch != nil {
		_ = rp.Release()
	} else {
		_ = rp.Resize(pe.size)
		pe.held = rp
	}
	return r, nil
}

// close returns the circulating block so clean cells audit leak-free.
func (pe *payEcho) close() {
	if pe.held != nil {
		_ = pe.held.Release()
		pe.held = nil
	}
}

// procWorker is the parent-side handle on one spawned worker.
type procWorker struct {
	cmd  *exec.Cmd
	out  bytes.Buffer
	errb bytes.Buffer
}

func spawnProcWorker(exe, role string, wire procWireCfg, segFile *os.File) (*procWorker, error) {
	b, err := json.Marshal(wire)
	if err != nil {
		return nil, err
	}
	w := &procWorker{cmd: exec.Command(exe)}
	w.cmd.Env = append(os.Environ(),
		procRoleEnv+"="+role,
		procCfgEnv+"="+string(b),
	)
	w.cmd.ExtraFiles = []*os.File{segFile} // fd 3 in the worker
	w.cmd.Stdout = &w.out
	w.cmd.Stderr = &w.errb
	if err := w.cmd.Start(); err != nil {
		return nil, fmt.Errorf("workload: spawn %s worker: %w", role, err)
	}
	return w, nil
}

// procCell is the parent side of one running cross-process cell: the
// segment and its workers, each re-executing this binary.
type procCell struct {
	seg     *shm.Seg
	segFile *os.File
	server  *procWorker
	clients []*procWorker
}

// startProcCell creates the cell's memfd segment and spawns its server
// and client workers on it. The caller closes the cell.
func startProcCell(cfg ProcConfig, name string) (*procCell, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("workload: cannot locate worker binary: %w", err)
	}
	seg, segFile, err := shm.CreateMemfdSeg(name, shm.SegConfig{
		Clients: cfg.Clients, RingCap: procRingCap, Blocks: paySlots(cfg.PaySize, cfg.Clients),
	})
	if err != nil {
		return nil, err
	}
	p := &procCell{seg: seg, segFile: segFile, clients: make([]*procWorker, cfg.Clients)}
	wire := procWireCfg{
		Alg:        cfg.Alg.String(),
		Clients:    cfg.Clients,
		Msgs:       cfg.Msgs,
		WatchdogNs: int64(cfg.Watchdog),
		PaySize:    cfg.PaySize,
		PayCopy:    cfg.PayCopy,
	}
	if p.server, err = spawnProcWorker(exe, procRoleServer, wire, segFile); err != nil {
		p.close()
		return nil, err
	}
	for i := range p.clients {
		wire.ClientID = i
		if p.clients[i], err = spawnProcWorker(exe, procRoleClient, wire, segFile); err != nil {
			p.server.kill()
			for _, c := range p.clients[:i] {
				c.kill()
			}
			p.close()
			return nil, err
		}
	}
	return p, nil
}

// awaitAttached waits, at most d, until the server's lifetable slot and
// every client's have left LifeFree: each worker has attached (its slot
// reads LifeLive while it runs).
func (p *procCell) awaitAttached(d time.Duration) error {
	v, err := p.seg.View()
	if err != nil {
		return err
	}
	end := time.Now().Add(d)
	for slot := 0; slot <= len(p.clients); {
		if v.Life[slot].State.Load() != shm.LifeFree {
			slot++
			continue
		}
		if time.Now().After(end) {
			return fmt.Errorf("workload: lifetable slot %d not claimed within %v", slot, d)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

func (p *procCell) close() {
	p.segFile.Close()
	p.seg.Close()
}

// segLeaks audits the segment once every worker is gone: the refs missing
// from its node pool and the blocks missing from its payload arena.
func segLeaks(v *shm.SegView) (pool, blocks int64) {
	pool = int64(v.Config().Nodes) - v.Pool.FreeCount()
	if v.Blocks != nil {
		blocks = int64(v.Blocks.Capacity()) - v.Blocks.TotalFree()
	}
	return pool, blocks
}

// wait reaps the worker with a deadline and parses its report. A
// worker that outlives the deadline is killed and reported as hung.
func (w *procWorker) wait(d time.Duration) (procWorkerResult, error) {
	done := make(chan error, 1)
	go func() { done <- w.cmd.Wait() }()
	var werr error
	select {
	case werr = <-done:
	case <-time.After(d):
		_ = w.cmd.Process.Kill()
		<-done
		return procWorkerResult{Hung: true}, fmt.Errorf("workload: worker exceeded parent deadline (%v); stderr: %s", d, w.errb.String())
	}
	var res procWorkerResult
	if err := json.Unmarshal(lastLine(w.out.Bytes()), &res); err != nil {
		return res, fmt.Errorf("workload: unparsable worker report (exit: %v, stderr: %s): %w", werr, w.errb.String(), err)
	}
	return res, nil
}

// kill SIGKILLs the worker and reaps it — the chaos hammer. Reaping
// matters: a zombie still answers kill(pid, 0) probes, so survivors
// would fall back to the (much slower) lease before declaring death.
func (w *procWorker) kill() {
	_ = w.cmd.Process.Kill()
	_ = w.cmd.Wait()
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// ProcClientResult is one client process's outcome within a cell.
type ProcClientResult struct {
	ID        int     `json:"id"`
	Sent      int64   `json:"sent"`
	ElapsedNs int64   `json:"elapsed_ns"`
	PeerDead  bool    `json:"peer_dead"`
	DetectMs  float64 `json:"detect_ms,omitempty"`
	Hung      bool    `json:"hung,omitempty"`
	Err       string  `json:"err,omitempty"`
}

// ProcResult is a clean cross-process cell's outcome.
type ProcResult struct {
	Served      int64
	Sent        int64
	RTTMicros   float64 // wall-clock per round trip (per client)
	Throughput  float64 // msgs per millisecond, cell-wide
	BytesPerSec float64 // payload bytes moved per second (PaySize cells)
	PaySize     int     // payload bytes per echo (0 = legacy 24-byte cell)
	PayCopy     bool    // copy-mode baseline rather than zero-copy
	Backend     string  // futex or poll
	All         metrics.Snapshot
	PoolLeaked  int64 // refs missing from the pool after teardown
	BlockLeaked int64 // payload blocks missing from the arena after teardown
	Clients     []ProcClientResult
}

// RunProcCell runs one clean cross-process cell: one server process,
// cfg.Clients client processes, cfg.Msgs echoes each, through a memfd
// segment. On platforms without a mapping backend it returns
// shm.ErrMapUnsupported.
func RunProcCell(cfg ProcConfig) (*ProcResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if cfg.Msgs <= 0 {
		cfg.Msgs = 1000
	}
	p, err := startProcCell(cfg, "ulipc-proc")
	if err != nil {
		return nil, err
	}
	defer p.close()

	res := &ProcResult{}
	var failures []error
	deadline := cfg.Watchdog + 10*time.Second
	var maxElapsed int64
	for i, c := range p.clients {
		r, err := c.wait(deadline)
		if err != nil {
			failures = append(failures, fmt.Errorf("client %d: %w", i, err))
		} else if r.Err != "" {
			failures = append(failures, fmt.Errorf("client %d: %s", i, r.Err))
		}
		res.Backend = r.Backend
		res.Sent += r.Sent
		maxElapsed = max(maxElapsed, r.ElapsedNs)
		res.All.Add(r.Metrics)
		res.Clients = append(res.Clients, ProcClientResult{
			ID: i, Sent: r.Sent, ElapsedNs: r.ElapsedNs,
			PeerDead: r.PeerDead, Hung: r.Hung, Err: r.Err,
		})
	}
	sr, err := p.server.wait(deadline)
	if err != nil {
		failures = append(failures, fmt.Errorf("server: %w", err))
	} else if sr.Err != "" {
		failures = append(failures, fmt.Errorf("server: %s", sr.Err))
	}
	res.Served = sr.Served
	res.All.Add(sr.Metrics)

	res.PaySize, res.PayCopy = cfg.PaySize, cfg.PayCopy
	if maxElapsed > 0 {
		res.RTTMicros = float64(maxElapsed) / 1e3 / float64(cfg.Msgs)
		res.Throughput = float64(res.Sent) / (float64(maxElapsed) / 1e6)
		if cfg.PaySize > 0 {
			// Each validated round trip moved the payload both ways.
			res.BytesPerSec = float64(res.Sent) * 2 * float64(cfg.PaySize) /
				(float64(maxElapsed) / 1e9)
		}
	}
	if v, err := p.seg.View(); err == nil {
		res.PoolLeaked, res.BlockLeaked = segLeaks(v)
	}
	if res.PoolLeaked != 0 || res.BlockLeaked != 0 {
		failures = append(failures, fmt.Errorf("leaked %d pool refs and %d payload blocks after clean run", res.PoolLeaked, res.BlockLeaked))
	}
	want := int64(cfg.Clients) * int64(cfg.Msgs)
	if len(failures) == 0 && (res.Sent != want || res.Served != want) {
		failures = append(failures, fmt.Errorf("message count mismatch: sent %d served %d want %d", res.Sent, res.Served, want))
	}
	return res, errors.Join(failures...)
}

// ProcChaosResult is the SIGKILL chaos cell's outcome.
type ProcChaosResult struct {
	Alg         string  `json:"alg"`
	Clients     int     `json:"clients"`
	Seed        int64   `json:"seed"`
	Backend     string  `json:"backend"`
	KillAfterMs float64 `json:"kill_after_ms"`
	PaySize     int     `json:"pay_size,omitempty"` // SIGKILL-mid-lease cell when > 0

	Completed   int64   `json:"completed"`     // validated round trips before the kill
	Detected    int     `json:"detected"`      // clients that surfaced ErrPeerDead
	Hung        int     `json:"hung"`          // clients still blocked at the watchdog
	DetectMsMax float64 `json:"detect_ms_max"` // slowest client's detection latency

	PeerDeaths   int64 `json:"peer_deaths"`
	WakeRescues  int64 `json:"wake_rescues"`
	OrphanMsgs   int64 `json:"orphan_msgs"`   // post-mortem: drained queued messages
	OrphanRefs   int64 `json:"orphan_refs"`   // post-mortem: reclaimed in-flight refs
	OrphanBlocks int64 `json:"orphan_blocks"` // post-mortem: reclaimed payload blocks
	PoolLeaked   int64 `json:"pool_leaked"`   // refs still missing AFTER the audit
	BlockLeaked  int64 `json:"block_leaked"`  // payload blocks still missing AFTER the audit

	Error string `json:"error,omitempty"`

	ClientResults []ProcClientResult `json:"clients_detail,omitempty"`
}

// RunProcChaosKill runs the cross-process SIGKILL cell: server and
// clients exchange traffic until the parent SIGKILLs the server, then
// every surviving client must unblock with core.ErrPeerDead — no
// hang, and no leak once the post-mortem audit has run. The returned
// error is non-nil when a hard invariant failed (a hung client, a
// missed detection, a leaked pool).
func RunProcChaosKill(cfg ProcConfig) (ProcChaosResult, error) {
	cfg.Msgs = 0 // clients run until the kill stops them
	if err := cfg.defaults(); err != nil {
		return ProcChaosResult{}, err
	}
	if cfg.Watchdog > 30*time.Second {
		cfg.Watchdog = 30 * time.Second
	}
	killAfter := cfg.KillServerAfter
	if killAfter <= 0 {
		killAfter = 150 * time.Millisecond
	}
	if cfg.Seed != 0 {
		killAfter += time.Duration(rand.New(rand.NewSource(cfg.Seed)).Int63n(int64(150 * time.Millisecond)))
	}
	out := ProcChaosResult{
		Alg: cfg.Alg.String(), Clients: cfg.Clients, Seed: cfg.Seed,
		KillAfterMs: float64(killAfter) / float64(time.Millisecond),
		PaySize:     cfg.PaySize,
	}

	p, err := startProcCell(cfg, "ulipc-chaos")
	if err != nil {
		return out, err
	}
	defer p.close()

	// Start the kill timer only once every worker has claimed its
	// lifetable slot: a server killed before it attaches leaves slot 0
	// Free, which no sweeper declares dead (DESIGN.md §12). Then let
	// traffic flow and murder the server mid-exchange. kill() also
	// reaps, so survivors' pid probes see ESRCH immediately.
	var failures []error
	if err := p.awaitAttached(cfg.Watchdog); err != nil {
		failures = append(failures, err)
	}
	time.Sleep(killAfter)
	p.server.kill()

	deadline := cfg.Watchdog + 10*time.Second
	for i, c := range p.clients {
		r, err := c.wait(deadline)
		if err != nil {
			out.Hung++
			failures = append(failures, fmt.Errorf("client %d: %w", i, err))
			continue
		}
		out.Backend = r.Backend
		out.Completed += r.Sent
		cr := ProcClientResult{
			ID: i, Sent: r.Sent, ElapsedNs: r.ElapsedNs,
			PeerDead: r.PeerDead, Hung: r.Hung, Err: r.Err,
			DetectMs: float64(r.DetectNs) / float64(time.Millisecond),
		}
		out.ClientResults = append(out.ClientResults, cr)
		out.PeerDeaths += r.Metrics.PeerDeaths
		out.WakeRescues += r.Metrics.WakeRescues
		switch {
		case r.Hung:
			out.Hung++
			failures = append(failures, fmt.Errorf("client %d hung past the watchdog", i))
		case r.PeerDead:
			out.Detected++
			if cr.DetectMs > out.DetectMsMax {
				out.DetectMsMax = cr.DetectMs
			}
		default:
			failures = append(failures, fmt.Errorf("client %d exited without observing the server's death: %s", i, r.Err))
		}
	}

	// Post-mortem audit: every process is gone, so the parent has
	// exclusive access. The segment must account for every ref.
	v, verr := p.seg.View()
	if verr != nil {
		failures = append(failures, verr)
	} else {
		msgs, refs, blocks, rerr := v.Reclaim()
		out.OrphanMsgs, out.OrphanRefs, out.OrphanBlocks = int64(msgs), int64(refs), int64(blocks)
		if rerr != nil {
			failures = append(failures, rerr)
		}
		out.PoolLeaked, out.BlockLeaked = segLeaks(v)
		if out.PoolLeaked != 0 || out.BlockLeaked != 0 {
			failures = append(failures, fmt.Errorf("leaked %d pool refs and %d payload blocks after reclaim", out.PoolLeaked, out.BlockLeaked))
		}
	}
	err = errors.Join(failures...)
	if err != nil {
		out.Error = err.Error()
	}
	return out, err
}

// WriteJSON emits the chaos result as indented JSON.
func (r *ProcChaosResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
