package livebind

import (
	"fmt"
	"io"

	"ulipc/internal/core"
	"ulipc/internal/metrics"
	"ulipc/internal/obs"
)

// Observability surface of a live System: the v2 metrics accessor
// (counters + per-protocol phase histograms), Prometheus text
// exposition, and flight-recorder dumps. All of it writes to a plain
// io.Writer or returns plain data, so the library links no network
// stack; a caller mounts it on HTTP or expvar itself (README,
// "Observability"). All of it is nil-safe: a System built without Options.Observer reports counters
// only and dumps nothing.

// Observer returns the attached observer, or nil.
func (s *System) Observer() *obs.Observer { return s.obs }

// MetricsV2 returns the histogram-aware system snapshot: per-process
// counters, their total, and — when an observer is attached — the
// per-protocol phase-latency histograms.
func (s *System) MetricsV2() metrics.SystemSnapshot {
	snap := s.ms.SystemSnapshot(s.obs)
	if s.blocks != nil {
		for _, cs := range s.blocks.Stats() {
			snap.Blocks = append(snap.Blocks, metrics.BlockClass{
				Size:      cs.Size,
				Count:     cs.Count,
				Free:      cs.Free,
				Fallbacks: cs.Fallbacks,
				Exhausts:  cs.Exhausts,
			})
		}
	}
	return snap
}

// WritePrometheus writes the system's metrics in Prometheus text
// exposition format: the observer's phase histograms (if any) followed
// by the aggregate protocol counters.
func (s *System) WritePrometheus(w io.Writer) {
	s.obs.WritePrometheus(w)
	t := s.ms.Total()
	for _, c := range []struct {
		name, help string
		value      int64
	}{
		{"ulipc_msgs_sent", "messages sent by all participants", t.MsgsSent},
		{"ulipc_msgs_received", "messages received by all participants", t.MsgsReceived},
		{"ulipc_sem_p", "semaphore P (down) operations", t.SemP},
		{"ulipc_sem_v", "semaphore V (up) operations", t.SemV},
		{"ulipc_blocks", "P operations that actually slept", t.Blocks},
		{"ulipc_wakeups", "V operations that woke a sleeper", t.Wakeups},
		{"ulipc_yields", "yield system calls", t.Yields},
		{"ulipc_spin_fallthrus", "BSLS poll loops that exhausted MAX_SPIN", t.SpinFallThrus},
		{"ulipc_timeouts", "cancellable waits ended by a deadline", t.Timeouts},
		{"ulipc_cancels", "cancellable waits ended by explicit cancel", t.Cancels},
		{"ulipc_retries", "queue-full retry rounds", t.Retries},
		{"ulipc_overloads", "sends rejected by admission control or a dry retry budget", t.Overloads},
		{"ulipc_sheds", "expired messages shed at server dequeue", t.Sheds},
		{"ulipc_expiries", "replies that arrived after their deadline", t.Expiries},
		{"ulipc_crashes", "injected crash panics recovered", t.Crashes},
		{"ulipc_peer_deaths", "actors declared dead by the sweeper", t.PeerDeaths},
		{"ulipc_lock_reclaims", "robust queue locks revoked from dead holders", t.LockReclaims},
		{"ulipc_orphan_msgs", "orphaned queued messages drained to the pool", t.OrphanMsgs},
		{"ulipc_orphan_refs", "leaked in-flight refs returned to the pool", t.OrphanRefs},
		{"ulipc_orphan_blocks", "leaked payload blocks reclaimed from dead owners", t.OrphanBlocks},
		{"ulipc_wake_rescues", "rescue Vs issued for lost wake-ups", t.WakeRescues},
		{"ulipc_block_fails", "payload allocations denied by class exhaustion", t.BlockFails},
	} {
		obs.WritePrometheusCounter(w, c.name, c.help, c.value)
	}
	s.writeBlockMetrics(w)
	s.writeTunerMetrics(w)
}

// writeBlockMetrics emits the payload slab arena's per-class exposition:
// free/capacity gauges plus the fallback/exhaustion backpressure
// counters, labelled by class size. A no-op without a payload arena.
func (s *System) writeBlockMetrics(w io.Writer) {
	if s.blocks == nil {
		return
	}
	stats := s.blocks.Stats()
	fmt.Fprintf(w, "# HELP ulipc_block_free free payload blocks per size class\n")
	fmt.Fprintf(w, "# TYPE ulipc_block_free gauge\n")
	for _, cs := range stats {
		fmt.Fprintf(w, "ulipc_block_free{size=\"%d\"} %d\n", cs.Size, cs.Free)
	}
	fmt.Fprintf(w, "# HELP ulipc_block_capacity payload block slots per size class\n")
	fmt.Fprintf(w, "# TYPE ulipc_block_capacity gauge\n")
	for _, cs := range stats {
		fmt.Fprintf(w, "ulipc_block_capacity{size=\"%d\"} %d\n", cs.Size, cs.Count)
	}
	fmt.Fprintf(w, "# HELP ulipc_block_fallbacks_total allocs absorbed for a smaller exhausted class\n")
	fmt.Fprintf(w, "# TYPE ulipc_block_fallbacks_total counter\n")
	for _, cs := range stats {
		fmt.Fprintf(w, "ulipc_block_fallbacks_total{size=\"%d\"} %d\n", cs.Size, cs.Fallbacks)
	}
	fmt.Fprintf(w, "# HELP ulipc_block_exhausts_total allocs that found the class empty\n")
	fmt.Fprintf(w, "# TYPE ulipc_block_exhausts_total counter\n")
	for _, cs := range stats {
		fmt.Fprintf(w, "ulipc_block_exhausts_total{size=\"%d\"} %d\n", cs.Size, cs.Exhausts)
	}
}

// writeTunerMetrics emits the BSA controller exposition: one
// spin-budget gauge per handle plus the aggregated decision counters.
// A no-op on the fixed-budget protocols (no tuners registered).
func (s *System) writeTunerMetrics(w io.Writer) {
	ts := s.Tuners()
	if len(ts) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP ulipc_spin_budget current BSA spin budget per handle\n")
	fmt.Fprintf(w, "# TYPE ulipc_spin_budget gauge\n")
	var sum core.TunerSnapshot
	for _, t := range ts {
		snap := t.T.Snapshot()
		fmt.Fprintf(w, "ulipc_spin_budget{handle=%q} %d\n", t.Name, snap.Budget)
		sum.Polls += snap.Polls
		sum.FallThrus += snap.FallThrus
		sum.Grows += snap.Grows
		sum.Shrinks += snap.Shrinks
		sum.Backoffs += snap.Backoffs
	}
	obs.WritePrometheusCounter(w, "ulipc_tuner_polls", "BSA waits observed by the controllers", sum.Polls)
	obs.WritePrometheusCounter(w, "ulipc_tuner_fallthrus", "BSA waits whose spin budget expired (slept)", sum.FallThrus)
	obs.WritePrometheusCounter(w, "ulipc_tuner_grows", "BSA budget increases", sum.Grows)
	obs.WritePrometheusCounter(w, "ulipc_tuner_shrinks", "BSA budget decreases tracking shorter arrivals", sum.Shrinks)
	obs.WritePrometheusCounter(w, "ulipc_tuner_backoffs", "BSA budget halvings by the oversubscription guard", sum.Backoffs)
}

// DumpFlightRecorder writes the observer's flight-recorder contents
// with actor names resolved; a no-op when no recorder is attached.
func (s *System) DumpFlightRecorder(w io.Writer) {
	s.obs.Dump(w)
}
