package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"ulipc/internal/obs"
)

// processCPU is this process's CPU time, user plus system, all
// threads: getrusage's sum read from the scheduler's nanosecond
// accounting rather than its tick-sampled copy.
func processCPU() int64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return ts.Nano()
}

// coldStartMsgs is how many round trips a cold start completes before
// it counts as up.
const coldStartMsgs = 1000

// coldStart is the set-up a user of the library pays before the first
// useful answer: construct the system, start its servers, connect, and
// complete the first coldStartMsgs round trips. The instance is
// returned running.
func coldStart(ctx context.Context, w *spec, in *inputs, tr *tracer, cores int) (*instance, time.Duration, int, error) {
	t0 := time.Now()
	inst, err := w.start(ctx, w, in, tr, cores)
	if err != nil {
		return nil, 0, 0, err
	}
	failed := runClients(inst, coldStartMsgs/w.clients/w.batch, nil)
	return inst, time.Since(t0), failed, nil
}

// runClients has every client make calls calls, concurrently, and
// returns the failed messages. With lat non-nil, client c times each of
// its calls into lat[c].
func runClients(inst *instance, calls int, lat [][]int64) (failed int) {
	if len(inst.calls) == 1 {
		return runClient(inst.calls[0], calls, latOf(lat, 0))
	}
	var wg sync.WaitGroup
	fails := make([]int, len(inst.calls))
	for c, call := range inst.calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fails[c] = runClient(call, calls, latOf(lat, c))
		}()
	}
	wg.Wait()
	for _, f := range fails {
		failed += f
	}
	return failed
}

func latOf(lat [][]int64, c int) []int64 {
	if lat == nil {
		return nil
	}
	return lat[c]
}

// runClient is the closed loop: the next call goes out when the
// previous one has been answered and checked. A timed loop reads the
// clock once per call — each call is timed from the end of the one
// before it, into lat[:calls].
func runClient(call func() int, calls int, lat []int64) (failed int) {
	if lat == nil {
		for i := 0; i < calls; i++ {
			failed += call()
		}
		return failed
	}
	t0 := time.Now()
	for i := range lat[:calls] {
		failed += call()
		t1 := time.Now()
		lat[i] = int64(t1.Sub(t0))
		t0 = t1
	}
	return failed
}

// window is one fixed-work slice of the measured phase. Throughput
// windows read no clock per message and carry elapsed and cpu; latency
// windows time every call and carry the sorted samples' quantiles.
type window struct {
	timed    bool
	msgs     int64
	bytes    int64
	elapsed  time.Duration
	cpuNS    int64
	p50, p99 float64
	samples  int
}

// measured is what one cold start and its run of windows yield.
type measured struct {
	windows   []window
	attempted int64
	failed    int64
	counts    counts // layer counters charged to the windows
	allocs    uint64 // heap allocations during the windows

	heapAfterSetup uint64            // live heap once the system is up
	stealPct       float64           // hypervisor steal during the windows
	phases         obs.ProtoSnapshot // obs phase histograms, where an observer is attached
}

// measure cold-starts w on that many cores, runs its windows and tears
// it down; what the cold start and the teardown attempted and failed is
// folded into the result.
func measure(ctx context.Context, w *spec, in *inputs, tr *tracer, cores int, next func(done int) bool) (*measured, error) {
	inst, _, failed, err := coldStart(ctx, w, in, tr, cores)
	if err != nil {
		return nil, err
	}
	runtime.GC() // start from the system's own live heap, not set-up garbage
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	steal0, total0 := cpuTicks()
	m := runWindows(inst, w, next)
	steal1, total1 := cpuTicks()
	m.heapAfterSetup = mem.HeapAlloc
	m.stealPct = stealPct(steal0, total0, steal1, total1)
	m.phases = mergePhases(inst.phases())
	m.failed += int64(failed + inst.stop())
	m.attempted += coldStartMsgs
	return &m, nil
}

// mergePhases folds the per-protocol histogram sets into one: a
// workload runs a single protocol, so the others are empty.
func mergePhases(protos []obs.ProtoSnapshot) obs.ProtoSnapshot {
	var all obs.ProtoSnapshot
	for _, p := range protos {
		all.QueueWait.Merge(p.QueueWait)
		all.Spin.Merge(p.Spin)
		all.Sleep.Merge(p.Sleep)
	}
	return all
}

// runWindows drives the measured phase: windows of w's fixed message
// count, alternating
// throughput and latency windows, each started once every client has
// finished the one before. Between windows it asks next, told how many
// are done, whether to go on; the system is idle during that call.
func runWindows(inst *instance, w *spec, next func(done int) bool) measured {
	calls := w.callsPerWindow()
	lat := make([][]int64, w.clients)
	for c := range lat {
		lat[c] = make([]int64, calls)
	}
	merged := make([]int64, 0, calls*w.clients)

	// One discarded window first: caches fill, the heap reaches its
	// working size, the runtime's timers and pollers settle.
	var m measured
	m.failed += int64(runClients(inst, calls, nil))

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := inst.counts()
	for n := 0; next(n); n++ {
		win := window{timed: n%2 == 1, msgs: int64(calls * w.batch * w.clients)}
		bytes0 := inst.payloadBytes()
		var failed int
		if win.timed {
			failed = runClients(inst, calls, lat)
			merged = merged[:0]
			for c := range lat {
				merged = append(merged, lat[c]...)
			}
			slices.Sort(merged)
			win.samples = len(merged)
			win.p50, win.p99 = float64(rank(merged, 0.50)), float64(rank(merged, 0.99))
		} else {
			cpu0, t0 := inst.cpuNS(), time.Now()
			failed = runClients(inst, calls, nil)
			win.elapsed = time.Since(t0)
			win.cpuNS = inst.cpuNS() - cpu0
		}
		win.bytes = win.msgs*2*msgBytes + inst.payloadBytes() - bytes0
		m.attempted += win.msgs
		m.failed += int64(failed)
		m.windows = append(m.windows, win)
	}
	m.counts = inst.counts().sub(c0)
	runtime.ReadMemStats(&ms1)
	m.allocs = ms1.Mallocs - ms0.Mallocs
	return m
}

// series extracts one per-window value from the windows of one kind.
func (m *measured) series(timed bool, f func(*window) float64) []float64 {
	var xs []float64
	for i := range m.windows {
		if m.windows[i].timed == timed {
			xs = append(xs, f(&m.windows[i]))
		}
	}
	return xs
}

// windowMsgs is the messages the windows carried: what counts and
// allocs are charged to.
func (m *measured) windowMsgs() (n int64) {
	for i := range m.windows {
		n += m.windows[i].msgs
	}
	return n
}

func (m *measured) msgsPerS() []float64 {
	return m.series(false, func(w *window) float64 { return float64(w.msgs) / w.elapsed.Seconds() })
}
func (m *measured) bytesPerS() []float64 {
	return m.series(false, func(w *window) float64 { return float64(w.bytes) / w.elapsed.Seconds() })
}
func (m *measured) cpuPerMsg() []float64 {
	return m.series(false, func(w *window) float64 { return float64(w.cpuNS) / float64(w.msgs) })
}
func (m *measured) p50s() []float64 {
	return m.series(true, func(w *window) float64 { return w.p50 })
}
func (m *measured) p99s() []float64 {
	return m.series(true, func(w *window) float64 { return w.p99 })
}
