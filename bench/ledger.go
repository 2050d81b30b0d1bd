package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ulipc"
	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/obs"
	"ulipc/internal/queue"
	"ulipc/internal/shm"
)

// The layer ledger: one single-purpose micro-cell per primitive a round
// trip touches, priced from outside through each module's exported
// functions — the paper's Table 1 for the live runtime. Every cell
// runs ledgerBatches batches of a fixed operation count and reports
// nanoseconds per operation of the best batch (the estimator of the
// windows). Cells are reported, never gated.
const ledgerBatches = 30

// cell is one ledger row. run performs ops operations and returns the
// time charged to them (set-up it needs per batch stays outside).
type cell struct {
	name  string
	procs int // GOMAXPROCS the cell needs
	ops   int // operations per batch
	run   func(ops int) (time.Duration, error)
}

// timed charges the whole of f to the batch.
func timed(f func(ops int)) func(int) (time.Duration, error) {
	return func(ops int) (time.Duration, error) {
		t0 := time.Now()
		f(ops)
		return time.Since(t0), nil
	}
}

// ledgerRow is one priced cell.
type ledgerRow struct {
	name string
	ns   float64
}

func runLedger(windows int) ([]ledgerRow, error) {
	batches := ledgerBatches
	if windows > 0 {
		batches = min(batches, windows)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var out []ledgerRow
	cells, closeCells, err := ledgerCells()
	if err != nil {
		return nil, err
	}
	defer closeCells()
	for _, c := range cells {
		runtime.GOMAXPROCS(c.procs)
		if _, err := c.run(c.ops / 10); err != nil { // warm-up
			return nil, fmt.Errorf("ledger cell %s: %w", c.name, err)
		}
		per := make([]float64, batches)
		for b := range per {
			d, err := c.run(c.ops)
			if err != nil {
				return nil, fmt.Errorf("ledger cell %s: %w", c.name, err)
			}
			per[b] = float64(d) / float64(c.ops)
		}
		out = append(out, ledgerRow{c.name, best(per, false)})
	}
	return out, nil
}

type enqDeq interface {
	Enqueue(core.Msg) bool
	Dequeue() (core.Msg, bool)
}

func queuePairs(q enqDeq) func(int) (time.Duration, error) {
	return timed(func(ops int) {
		for i := 0; i < ops; i++ {
			q.Enqueue(core.Msg{Seq: int32(i)})
			q.Dequeue()
		}
	})
}

// pingPong runs two goroutines that hand control back and forth ops
// times through wake/wait, pinned to their own threads when locked.
// One operation is one hand-off, so a round trip is two.
func pingPong(locked bool, wakeA, waitA, wakeB, waitB func()) func(int) (time.Duration, error) {
	return func(ops int) (time.Duration, error) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if locked {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			for i := 0; i < ops/2; i++ {
				waitB()
				wakeA()
			}
		}()
		if locked {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
		}
		t0 := time.Now()
		for i := 0; i < ops/2; i++ {
			wakeB()
			waitA()
		}
		d := time.Since(t0)
		wg.Wait()
		return d, nil
	}
}

func semHandoff(a, b *livebind.Semaphore) func(int) (time.Duration, error) {
	return pingPong(false, func() { a.V() }, func() { a.P() }, func() { b.V() }, func() { b.P() })
}

func ledgerCells() (cells []cell, closeAll func(), err error) {
	var closers []func()
	closeAll = func() {
		for _, f := range closers {
			f()
		}
	}
	defer func() {
		if err != nil {
			closeAll()
		}
	}()
	add := func(name string, procs, ops int, run func(int) (time.Duration, error)) {
		cells = append(cells, cell{name, procs, ops, run})
	}

	// --- queue: one enqueue+dequeue pair ---
	twolock, err := queue.NewTwoLock(64)
	if err != nil {
		return nil, nil, err
	}
	spsc, err := queue.NewSPSC(64)
	if err != nil {
		return nil, nil, err
	}
	ring, err := queue.NewRing(64)
	if err != nil {
		return nil, nil, err
	}
	lockfree, err := queue.NewLockFree(64)
	if err != nil {
		return nil, nil, err
	}
	add("queue.twolock_pair_ns", 1, 100_000, queuePairs(twolock))
	add("queue.spsc_pair_ns", 1, 100_000, queuePairs(spsc))
	add("queue.ring_pair_ns", 1, 100_000, queuePairs(ring))
	add("queue.lockfree_pair_ns", 1, 100_000, queuePairs(lockfree))

	// Two producers on two cores, each doing its own pairs on the one
	// queue: the price of a pair while the other core contends.
	contended, err := queue.NewTwoLock(64)
	if err != nil {
		return nil, nil, err
	}
	add("queue.twolock_contended_pair_ns", 2, 100_000, func(ops int) (time.Duration, error) {
		var wg sync.WaitGroup
		t0 := time.Now()
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					contended.Enqueue(core.Msg{Seq: int32(i)})
					contended.Dequeue()
				}
			}()
		}
		wg.Wait()
		return time.Since(t0), nil
	})

	lanes4 := make([]*queue.SPSC, 4)
	for i := range lanes4 {
		if lanes4[i], err = queue.NewSPSC(64); err != nil {
			return nil, nil, err
		}
	}
	lanes, err := queue.NewLanes(lanes4)
	if err != nil {
		return nil, nil, err
	}
	add("queue.lanes_pair_ns", 1, 100_000, timed(func(ops int) {
		for i := 0; i < ops; i++ {
			lanes4[i&3].Enqueue(core.Msg{Seq: int32(i)})
			lanes.Dequeue()
		}
	}))

	// --- shm: node pool, segment lane and pool, block arena ---
	pool, err := shm.NewPoolSize(256)
	if err != nil {
		return nil, nil, err
	}
	add("shm.pool_alloc_free_ns", 1, 100_000, timed(func(ops int) {
		for i := 0; i < ops; i++ {
			r, _ := pool.Alloc()
			pool.Free(r)
		}
	}))
	cache := pool.NewCache(8)
	add("shm.poolcache_alloc_free_ns", 1, 100_000, timed(func(ops int) {
		for i := 0; i < ops; i++ {
			r, _, _ := cache.Alloc()
			cache.Free(r)
		}
	}))

	heapSeg, err := shm.NewHeapSeg(shm.SegConfig{Clients: 1, Blocks: 64})
	if err != nil {
		return nil, nil, err
	}
	view, err := heapSeg.View()
	if err != nil {
		return nil, nil, err
	}
	lane := view.ReqLane(0)
	add("shm.lane_pair_ns", 1, 100_000, timed(func(ops int) {
		for i := 0; i < ops; i++ {
			lane.TryPush(shm.Ref(i & 63))
			lane.TryPop()
		}
	}))
	add("shm.segpool_alloc_free_ns", 1, 100_000, timed(func(ops int) {
		for i := 0; i < ops; i++ {
			r, _ := view.Pool.Alloc()
			view.Pool.Free(r)
		}
	}))
	blockCycle := func(n int) func(int) (time.Duration, error) {
		return func(ops int) (time.Duration, error) {
			t0 := time.Now()
			for i := 0; i < ops; i++ {
				r, _, ok := view.Blocks.Alloc(n)
				if !ok {
					return 0, fmt.Errorf("block arena refused %d bytes", n)
				}
				if err := view.Blocks.Free(r); err != nil {
					return 0, err
				}
			}
			return time.Since(t0), nil
		}
	}
	add("shm.block_alloc_free_ns.64", 1, 100_000, blockCycle(64))
	add("shm.block_alloc_free_ns.4096", 1, 100_000, blockCycle(4096))
	blockCache := view.Blocks.NewBlockCache(8)
	add("shm.blockcache_alloc_free_ns", 1, 100_000, func(ops int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			r, _, ok, _ := blockCache.Alloc(256)
			if !ok {
				return 0, fmt.Errorf("block cache refused 256 bytes")
			}
			if _, err := blockCache.Free(r); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	leased, _, ok := view.Blocks.Alloc(256)
	if !ok {
		return nil, nil, fmt.Errorf("block arena refused 256 bytes")
	}
	add("shm.block_lease_claim_ns", 1, 100_000, func(ops int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			if !view.Blocks.Claim(leased, uint32(i&1)) {
				return 0, fmt.Errorf("claim of a leased block failed")
			}
		}
		return time.Since(t0), nil
	})
	if err := view.Blocks.Lease(leased, 0); err != nil {
		return nil, nil, err
	}
	add("shm.seg_create_map_ns", 1, 50, func(ops int) (time.Duration, error) {
		var d time.Duration
		for i := 0; i < ops; i++ {
			t0 := time.Now()
			seg, f, err := shm.CreateMemfdSeg("ulipc-bench-ledger", shm.SegConfig{Clients: 1, Blocks: xprocBlocks})
			d += time.Since(t0)
			if err != nil {
				return 0, err
			}
			_ = seg.Close()
			_ = f.Close()
		}
		return d, nil
	})

	// --- livebind: semaphores, construction, teardown ---
	sem := livebind.NewSemaphore(0)
	add("livebind.sem_vp_ns", 1, 100_000, timed(func(ops int) {
		for i := 0; i < ops; i++ {
			sem.V()
			sem.P()
		}
	}))
	// One processor, two goroutines: every V wakes a parked P and the
	// waker parks in turn — the paper's context-switch pair.
	add("livebind.sem_handoff_ns", 1, 40_000, semHandoff(livebind.NewSemaphore(0), livebind.NewSemaphore(0)))
	add("livebind.semarray_handoff_ns", 1, 40_000, semHandoff(livebind.NewWaitArraySemaphore(0), livebind.NewWaitArraySemaphore(0)))

	psA := livebind.NewProcSem(&view.Sems[0], livebind.DefaultWaitSlice)
	psB := livebind.NewProcSem(&view.Sems[1], livebind.DefaultWaitSlice)
	add("livebind.procsem_vp_ns", 1, 100_000, timed(func(ops int) {
		for i := 0; i < ops; i++ {
			psA.V()
			psA.P()
		}
	}))
	// Two locked threads on two cores: every hand-off is a futex wake
	// and a futex wait, the cross-process sleep/wake-up price.
	add("livebind.procsem_handoff_ns", 2, 400,
		pingPong(true, func() { psA.V() }, func() { psA.P() }, func() { psB.V() }, func() { psB.P() }))

	add("livebind.new_system_ns", 1, 50, func(ops int) (time.Duration, error) {
		return construct(ops, func() (*ulipc.System, error) {
			return livebind.NewSystem(livebind.Options{Alg: core.BSW, Clients: 1})
		}, false)
	})
	add("livebind.new_group_ns", 1, 50, func(ops int) (time.Duration, error) {
		return construct(ops, func() (*ulipc.System, error) {
			return livebind.NewSystemGroup(2, livebind.Options{Alg: core.BSW, Clients: 4})
		}, false)
	})
	add("livebind.shutdown_ns", 1, 50, func(ops int) (time.Duration, error) {
		return construct(ops, func() (*ulipc.System, error) {
			return livebind.NewSystem(livebind.Options{Alg: core.BSW, Clients: 1})
		}, true)
	})
	add("livebind.proc_attach_ns", 1, 50, func(ops int) (time.Duration, error) {
		var d time.Duration
		for i := 0; i < ops; i++ {
			seg, err := shm.NewHeapSeg(shm.SegConfig{Clients: 1, Blocks: xprocBlocks})
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			srv, err := livebind.AttachProcServer(seg, livebind.ProcOptions{Alg: core.BSLS})
			if err != nil {
				return 0, err
			}
			cl, err := livebind.AttachProcClient(seg, 0, livebind.ProcOptions{Alg: core.BSLS})
			d += time.Since(t0)
			if err != nil {
				srv.Close()
				return 0, err
			}
			cl.Close()
			srv.Close()
		}
		return d, nil
	})

	// --- core: the lease a payload request opens and closes ---
	leaseSys, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSLS, Clients: 1, BlockSlots: 64})
	if err != nil {
		return nil, nil, err
	}
	closers = append(closers, func() { _ = leaseSys.Shutdown(context.Background()) })
	leaseClient, err := leaseSys.Client(0)
	if err != nil {
		return nil, nil, err
	}
	add("core.lease_cycle_ns", 1, 100_000, func(ops int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			p, err := leaseClient.AllocPayload(256)
			if err != nil {
				return 0, err
			}
			if err := p.Release(); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})

	// --- obs: the four phase calls of one round trip, off and on ---
	ob := obs.New(obs.Config{})
	phases := func(h obs.Hook) func(int) (time.Duration, error) {
		return timed(func(ops int) {
			for i := 0; i < ops; i++ {
				d := time.Duration(1000 + i&1023)
				h.QueueWait(d)
				h.Spin(d)
				h.Sleep(d)
				h.RTT(d)
			}
		})
	}
	add("obs.hook_off_ns", 1, 100_000, phases(obs.Hook{}))
	add("obs.hook_on_ns", 1, 100_000, phases(ob.Hook(int(core.BSW), ob.RegisterActor("ledger"))))
	hist := &ob.Proto(int(core.BSW)).RTT
	add("obs.hist_record_ns", 1, 100_000, timed(func(ops int) {
		for i := 0; i < ops; i++ {
			hist.Record(time.Duration(1000 + i&1023))
		}
	}))
	add("obs.snapshot_ns", 1, 200, timed(func(ops int) {
		for i := 0; i < ops; i++ {
			ob.Snapshot()
		}
	}))

	// --- baseline: what this host charges for the alternatives ---
	add("baseline.gosched_pair_ns", 1, 100_000, func(ops int) (time.Duration, error) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				runtime.Gosched()
			}
		}()
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			runtime.Gosched()
		}
		d := time.Since(t0)
		wg.Wait()
		return d, nil
	})
	// Two threads confined to one CPU, each yielding it to the other:
	// what a cross-process busy-wait pays per round trip on one core.
	add("baseline.osyield_pair_ns", 2, 20_000, func(ops int) (time.Duration, error) {
		if err := confine(1); err != nil {
			return 0, err
		}
		yield := func() { _, _, _ = syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for !stop.Load() {
				yield()
			}
		}()
		runtime.LockOSThread()
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			yield()
		}
		d := time.Since(t0)
		runtime.UnlockOSThread()
		stop.Store(true)
		wg.Wait()
		return d, confine(2)
	})
	ping, pong := make(chan struct{}), make(chan struct{})
	add("baseline.chan_rtt_ns", 1, 40_000, func(ops int) (time.Duration, error) {
		return pingPong(false,
			func() { pong <- struct{}{} }, func() { <-pong },
			func() { ping <- struct{}{} }, func() { <-ping })(2 * ops)
	})
	var there, back [2]int
	if err := syscall.Pipe(there[:]); err != nil {
		return nil, nil, err
	}
	if err := syscall.Pipe(back[:]); err != nil {
		return nil, nil, err
	}
	closers = append(closers, func() {
		for _, fd := range []int{there[0], there[1], back[0], back[1]} {
			_ = syscall.Close(fd)
		}
	})
	var pipeFailed atomic.Bool
	xfer := func(read bool, fd int) func() {
		buf := make([]byte, 1)
		return func() {
			var err error
			if read {
				_, err = syscall.Read(fd, buf)
			} else {
				_, err = syscall.Write(fd, buf)
			}
			if err != nil {
				pipeFailed.Store(true)
			}
		}
	}
	// A one-byte message each way over two kernel pipes, between two
	// locked threads: the msgsnd/msgrcv row of the paper's Table 1.
	add("baseline.pipe_rtt_ns", 2, 1_000, func(ops int) (time.Duration, error) {
		d, _ := pingPong(true,
			xfer(false, back[1]), xfer(true, back[0]),
			xfer(false, there[1]), xfer(true, there[0]))(2 * ops)
		if pipeFailed.Load() {
			return 0, fmt.Errorf("pipe read or write failed")
		}
		return d, nil
	})
	return cells, closeAll, nil
}

// construct times ops system constructions, or — with shutdown — the
// Shutdown of ops freshly constructed systems.
func construct(ops int, build func() (*ulipc.System, error), shutdown bool) (time.Duration, error) {
	var built, down time.Duration
	for i := 0; i < ops; i++ {
		t0 := time.Now()
		sys, err := build()
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		err = sys.Shutdown(context.Background())
		built += t1.Sub(t0)
		down += time.Since(t1)
		if err != nil {
			return 0, err
		}
	}
	if shutdown {
		return down, nil
	}
	return built, nil
}

// ledgerFormula is a workload's round trip written as a sum of ledger
// rows: what the layers say one call should cost.
type ledgerTerm struct {
	n    float64
	cell string
}

func ledgerFormula(w *spec) []ledgerTerm {
	switch w.name {
	case "up_handoff":
		return []ledgerTerm{{1, "queue.twolock_pair_ns"}, {1, "queue.spsc_pair_ns"}, {2, "livebind.sem_handoff_ns"}}
	case "up_observed":
		return []ledgerTerm{{1, "queue.twolock_pair_ns"}, {1, "queue.spsc_pair_ns"}, {2, "livebind.sem_handoff_ns"}, {1, "obs.hook_on_ns"}}
	case "spin_fanin":
		// A call lasts one turn of the ring of four clients and a server
		// on one processor: all four messages cross both queues, and five
		// goroutines are switched to (a Gosched pair is two switches).
		return []ledgerTerm{{4, "queue.twolock_pair_ns"}, {4, "queue.spsc_pair_ns"}, {2.5, "baseline.gosched_pair_ns"}}
	case "batch_fanin":
		// Per call of 16: every message crosses a lane and a reply
		// queue; the batch is woken for once each way.
		return []ledgerTerm{{16, "queue.lanes_pair_ns"}, {16, "queue.spsc_pair_ns"}, {2, "livebind.sem_handoff_ns"}}
	case "xproc_payload":
		// Both processes share a processor: each way, the busy-wait's
		// sched_yield is what hands it to the peer.
		return []ledgerTerm{{2, "shm.lane_pair_ns"}, {2, "shm.segpool_alloc_free_ns"}, {1, "shm.block_alloc_free_ns.64"}, {2, "shm.block_lease_claim_ns"}, {1, "baseline.osyield_pair_ns"}}
	}
	return nil
}

// residual is the share of the measured median round trip the ledger
// formula leaves unexplained, with the formula spelt out.
func residual(w *spec, p50 float64, rows []ledgerRow) (float64, string) {
	ledger := make(map[string]float64, len(rows))
	for _, r := range rows {
		ledger[r.name] = r.ns
	}
	sum, text := 0.0, ""
	for i, t := range ledgerFormula(w) {
		sum += t.n * ledger[t.cell]
		if i > 0 {
			text += " + "
		}
		text += fmt.Sprintf("%g×%s", t.n, t.cell)
	}
	return (p50 - sum) / p50, fmt.Sprintf("(rtt_p50_ns − (%s)) ÷ rtt_p50_ns = (%.0f − %.0f) ÷ %.0f", text, p50, sum, p50)
}
