// Package metrics collects the per-process and per-run counters the paper
// uses to explain its results: voluntary/involuntary context switches (the
// getrusage analysis of Section 2.2), yields per round trip, semaphore
// operations, and the BSLS spin-loop statistics of Section 4.2.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Proc holds counters for a single (simulated or live) process. All fields
// are updated with atomics so the live runtime can share the type.
type Proc struct {
	Name string

	VoluntaryCS   atomic.Int64 // context switches where the process gave up the CPU
	InvoluntaryCS atomic.Int64 // quantum expiry / preemption
	Yields        atomic.Int64 // yield() system calls
	BusyWaits     atomic.Int64 // busy_wait invocations (spin or yield)
	SemP          atomic.Int64 // semaphore down operations
	SemV          atomic.Int64 // semaphore up operations
	Blocks        atomic.Int64 // P operations that actually slept
	Wakeups       atomic.Int64 // V operations that woke a sleeper
	Sleeps        atomic.Int64 // sleep(1) queue-full naps
	Syscalls      atomic.Int64 // total system calls
	Handoffs      atomic.Int64 // handoff() system calls

	MsgsSent     atomic.Int64
	MsgsReceived atomic.Int64

	// PoolRefills is written by no live path (every producer allocates
	// straight from the shared node pool). It stays because the
	// benchmark driver reads it for its per-layer
	// shm.pool_refills_per_msg row.
	PoolRefills atomic.Int64

	// BlockFails is allocation backpressure on the payload arena:
	// payload allocations refused because every size class was empty.
	BlockFails atomic.Int64

	// BSLS spin-loop statistics (Section 4.2): how often the poll loop
	// fell through to the blocking path, and total iterations executed.
	SpinLoops     atomic.Int64 // number of poll loops entered
	SpinIters     atomic.Int64 // total poll iterations
	SpinFallThrus atomic.Int64 // loops that exhausted MAX_SPIN

	// Robustness-layer statistics (the *Ctx paths): deadline expiries,
	// cancellations, and bounded queue-full retries.
	Timeouts atomic.Int64 // cancellable waits ended by a deadline
	Cancels  atomic.Int64 // cancellable waits ended by explicit cancel
	Retries  atomic.Int64 // queue-full retry-with-backoff rounds

	// Overload-doctrine statistics (DESIGN.md §14): admission rejects,
	// server-side deadline sheds, and client-observed late replies.
	Overloads atomic.Int64 // sends rejected by admission or a dry retry budget
	Sheds     atomic.Int64 // expired messages dropped at server dequeue
	Expiries  atomic.Int64 // replies that arrived after their deadline

	// Recovery statistics (the chaos/peer-death machinery): what the
	// sweeper detected and repaired. Attributed to the sweeper's own
	// Proc, so they roll up through Total() like everything else.
	Crashes      atomic.Int64 // injected crash panics recovered by wrappers
	PeerDeaths   atomic.Int64 // actors declared dead by the sweeper
	LockReclaims atomic.Int64 // robust queue locks revoked from dead holders
	OrphanMsgs   atomic.Int64 // orphaned queued messages drained to the pool
	OrphanRefs   atomic.Int64 // leaked in-flight refs returned to the pool
	OrphanBlocks atomic.Int64 // payload blocks reclaimed from dead peers
	WakeRescues  atomic.Int64 // rescue Vs issued for lost wake-ups

	CPUTimeNS atomic.Int64 // virtual (sim) or estimated (live) CPU time
}

// SwitchesTotal returns voluntary + involuntary context switches.
func (p *Proc) SwitchesTotal() int64 {
	return p.VoluntaryCS.Load() + p.InvoluntaryCS.Load()
}

// FallThroughRate returns the fraction of BSLS poll loops that exhausted
// MAX_SPIN and fell through to the blocking path.
func (p *Proc) FallThroughRate() float64 {
	loops := p.SpinLoops.Load()
	if loops == 0 {
		return 0
	}
	return float64(p.SpinFallThrus.Load()) / float64(loops)
}

// AvgSpinIters returns the mean number of poll iterations per poll loop.
func (p *Proc) AvgSpinIters() float64 {
	loops := p.SpinLoops.Load()
	if loops == 0 {
		return 0
	}
	return float64(p.SpinIters.Load()) / float64(loops)
}

// Snapshot is a plain-value copy of a Proc's counters, suitable for
// aggregation and printing.
type Snapshot struct {
	Name          string
	VoluntaryCS   int64
	InvoluntaryCS int64
	Yields        int64
	BusyWaits     int64
	SemP          int64
	SemV          int64
	Blocks        int64
	Wakeups       int64
	Sleeps        int64
	Syscalls      int64
	Handoffs      int64
	MsgsSent      int64
	MsgsReceived  int64
	PoolRefills   int64
	BlockFails    int64
	SpinLoops     int64
	SpinIters     int64
	SpinFallThrus int64
	Timeouts      int64
	Cancels       int64
	Retries       int64
	Overloads     int64
	Sheds         int64
	Expiries      int64
	Crashes       int64
	PeerDeaths    int64
	LockReclaims  int64
	OrphanMsgs    int64
	OrphanRefs    int64
	OrphanBlocks  int64
	WakeRescues   int64
	CPUTimeNS     int64
}

// Snapshot returns a point-in-time copy of the counters.
func (p *Proc) Snapshot() Snapshot {
	return Snapshot{
		Name:          p.Name,
		VoluntaryCS:   p.VoluntaryCS.Load(),
		InvoluntaryCS: p.InvoluntaryCS.Load(),
		Yields:        p.Yields.Load(),
		BusyWaits:     p.BusyWaits.Load(),
		SemP:          p.SemP.Load(),
		SemV:          p.SemV.Load(),
		Blocks:        p.Blocks.Load(),
		Wakeups:       p.Wakeups.Load(),
		Sleeps:        p.Sleeps.Load(),
		Syscalls:      p.Syscalls.Load(),
		Handoffs:      p.Handoffs.Load(),
		MsgsSent:      p.MsgsSent.Load(),
		MsgsReceived:  p.MsgsReceived.Load(),
		PoolRefills:   p.PoolRefills.Load(),
		BlockFails:    p.BlockFails.Load(),
		SpinLoops:     p.SpinLoops.Load(),
		SpinIters:     p.SpinIters.Load(),
		SpinFallThrus: p.SpinFallThrus.Load(),
		Timeouts:      p.Timeouts.Load(),
		Cancels:       p.Cancels.Load(),
		Retries:       p.Retries.Load(),
		Overloads:     p.Overloads.Load(),
		Sheds:         p.Sheds.Load(),
		Expiries:      p.Expiries.Load(),
		Crashes:       p.Crashes.Load(),
		PeerDeaths:    p.PeerDeaths.Load(),
		LockReclaims:  p.LockReclaims.Load(),
		OrphanMsgs:    p.OrphanMsgs.Load(),
		OrphanRefs:    p.OrphanRefs.Load(),
		OrphanBlocks:  p.OrphanBlocks.Load(),
		WakeRescues:   p.WakeRescues.Load(),
		CPUTimeNS:     p.CPUTimeNS.Load(),
	}
}

// Add accumulates other into s (Name is kept).
func (s *Snapshot) Add(other Snapshot) {
	s.VoluntaryCS += other.VoluntaryCS
	s.InvoluntaryCS += other.InvoluntaryCS
	s.Yields += other.Yields
	s.BusyWaits += other.BusyWaits
	s.SemP += other.SemP
	s.SemV += other.SemV
	s.Blocks += other.Blocks
	s.Wakeups += other.Wakeups
	s.Sleeps += other.Sleeps
	s.Syscalls += other.Syscalls
	s.Handoffs += other.Handoffs
	s.MsgsSent += other.MsgsSent
	s.MsgsReceived += other.MsgsReceived
	s.PoolRefills += other.PoolRefills
	s.BlockFails += other.BlockFails
	s.SpinLoops += other.SpinLoops
	s.SpinIters += other.SpinIters
	s.SpinFallThrus += other.SpinFallThrus
	s.Timeouts += other.Timeouts
	s.Cancels += other.Cancels
	s.Retries += other.Retries
	s.Overloads += other.Overloads
	s.Sheds += other.Sheds
	s.Expiries += other.Expiries
	s.Crashes += other.Crashes
	s.PeerDeaths += other.PeerDeaths
	s.LockReclaims += other.LockReclaims
	s.OrphanMsgs += other.OrphanMsgs
	s.OrphanRefs += other.OrphanRefs
	s.OrphanBlocks += other.OrphanBlocks
	s.WakeRescues += other.WakeRescues
	s.CPUTimeNS += other.CPUTimeNS
}

// SwitchesTotal returns voluntary + involuntary context switches.
func (s Snapshot) SwitchesTotal() int64 { return s.VoluntaryCS + s.InvoluntaryCS }

// YieldsPerMsg returns yields divided by messages sent (the paper's
// "~2.5 yields per round-trip" instrumentation), or 0 if no messages.
func (s Snapshot) YieldsPerMsg() float64 {
	if s.MsgsSent == 0 {
		return 0
	}
	return float64(s.Yields) / float64(s.MsgsSent)
}

func (s Snapshot) String() string {
	return fmt.Sprintf("%s: vcs=%d ivcs=%d yields=%d P=%d V=%d blocks=%d wake=%d msgs=%d/%d",
		s.Name, s.VoluntaryCS, s.InvoluntaryCS, s.Yields, s.SemP, s.SemV,
		s.Blocks, s.Wakeups, s.MsgsSent, s.MsgsReceived)
}

// Set is a collection of per-process metrics for one run. Registration
// and aggregation are safe for concurrent use (the live runtime creates
// client handles dynamically).
type Set struct {
	mu    sync.Mutex
	procs []*Proc
}

// NewSet returns an empty metrics set.
func NewSet() *Set { return &Set{} }

// NewProc registers and returns a new per-process counter block.
func (s *Set) NewProc(name string) *Proc {
	p := &Proc{Name: name}
	s.mu.Lock()
	s.procs = append(s.procs, p)
	s.mu.Unlock()
	return p
}

// Procs returns the registered processes in registration order.
func (s *Set) Procs() []*Proc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Proc(nil), s.procs...)
}

// Snapshots returns snapshots of all processes, sorted by name.
func (s *Set) Snapshots() []Snapshot {
	procs := s.Procs()
	out := make([]Snapshot, 0, len(procs))
	for _, p := range procs {
		out = append(out, p.Snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Total returns the sum over all processes.
func (s *Set) Total() Snapshot {
	t := Snapshot{Name: "total"}
	for _, p := range s.Procs() {
		t.Add(p.Snapshot())
	}
	return t
}

// ByPrefix sums the processes whose name begins with prefix (e.g. "client").
func (s *Set) ByPrefix(prefix string) Snapshot {
	t := Snapshot{Name: prefix + "*"}
	for _, p := range s.Procs() {
		if strings.HasPrefix(p.Name, prefix) {
			t.Add(p.Snapshot())
		}
	}
	return t
}

// Find returns the snapshot for the named process, if present.
func (s *Set) Find(name string) (Snapshot, bool) {
	for _, p := range s.Procs() {
		if p.Name == name {
			return p.Snapshot(), true
		}
	}
	return Snapshot{}, false
}
