// Package obs is the observability layer of the live runtime: lock-free
// log-bucketed latency histograms that attribute round-trip time to the
// phase where it is spent (spin vs. sleep vs. queue-wait), a bounded
// concurrent flight recorder of recent IPC events, and a Prometheus
// text-format writer. Export goes to an io.Writer or out as plain
// snapshot data; serving it over HTTP or expvar is the caller's.
//
// The package is deliberately a leaf: it imports only the standard
// library, so internal/core and internal/livebind can both hook into it
// without cycles. Every hot-path entry point (Hook methods,
// Histogram.Record, FlightRecorder.Note) is nil-receiver safe and
// allocation-free, so the disabled configuration costs exactly one
// pointer nil-check per hook site — the paper's measurement discipline
// (explain every RTT through counters) without a measurable tax on the
// fast path it measures. Every phase is timed on one timebase, Now:
// monotonic nanoseconds, one clock read per phase boundary.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: log-linear, 16 linear sub-buckets per
// power-of-two octave. Values 0..15ns land in exact unit buckets;
// octave g >= 1 covers [16<<(g-1), 16<<g) in 16 equal steps, giving a
// worst-case relative resolution of 1/16 (~6%) across the whole range.
// The top octave caps at 16<<histGroups ns (~18 minutes), far beyond
// any sane IPC phase duration; larger values clamp into the last
// bucket (their exact magnitude is still preserved in Sum and Max).
const (
	histSubBits = 4
	histSub     = 1 << histSubBits // linear sub-buckets per octave
	histGroups  = 36               // octaves above the exact range
	histBuckets = (histGroups + 1) * histSub
)

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	g := bits.Len64(v) - histSubBits
	if g > histGroups {
		return histBuckets - 1
	}
	sub := (v >> uint(g-1)) & (histSub - 1)
	return g*histSub + int(sub)
}

// bucketLower returns the inclusive lower bound of a bucket.
func bucketLower(idx int) uint64 {
	if idx < histSub {
		return uint64(idx)
	}
	g := idx / histSub
	sub := idx % histSub
	return uint64(histSub+sub) << uint(g-1)
}

// bucketUpper returns the exclusive upper bound of a bucket.
func bucketUpper(idx int) uint64 {
	if idx >= histBuckets-1 {
		return 1 << 63 // open-ended top bucket
	}
	return bucketLower(idx + 1)
}

// Histogram is a lock-free log-bucketed latency histogram. Record is
// safe for any number of concurrent writers; Snapshot may run
// concurrently with writers and never loses a count (a racing snapshot
// may miss an in-flight Record, which a later snapshot then includes —
// counts are monotonic). The zero value is ready for use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64 // total nanoseconds
	max    atomic.Uint64 // largest recorded value (CAS-maintained)
}

// Record adds one duration observation. Negative durations clamp to
// zero (a monotonic-clock read can regress across VM migrations).
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot returns a plain-value copy of the histogram. The trailing
// all-zero buckets are trimmed so snapshots stay small in JSON exports.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	var s HistSnapshot
	last := -1
	tmp := make([]uint64, histBuckets)
	for i := range h.counts {
		c := h.counts[i].Load()
		tmp[i] = c
		if c != 0 {
			last = i
			s.Count += c
		}
	}
	s.Counts = tmp[:last+1]
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, suitable for
// merging across processes and quantile evaluation.
type HistSnapshot struct {
	Counts []uint64 `json:"counts,omitempty"` // per-bucket counts, trailing zeros trimmed
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum_ns"`
	Max    uint64   `json:"max_ns"`
}

// Merge accumulates other into s.
func (s *HistSnapshot) Merge(other HistSnapshot) {
	if len(other.Counts) > len(s.Counts) {
		grown := make([]uint64, len(other.Counts))
		copy(grown, s.Counts)
		s.Counts = grown
	}
	for i, c := range other.Counts {
		s.Counts[i] += c
	}
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Max > s.Max {
		s.Max = other.Max
	}
}

// Mean returns the mean recorded value in nanoseconds.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an estimate (in nanoseconds) of the q-quantile,
// 0 <= q <= 1, by linear interpolation inside the target bucket. The
// estimate is exact for values below 16ns and within ~6% elsewhere.
// Quantile(1) returns the exact maximum.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return float64(s.Max)
	}
	if q < 0 {
		q = 0
	}
	target := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, hi := float64(bucketLower(i)), float64(bucketUpper(i))
			if m := float64(s.Max); hi > m {
				hi = m // the top occupied bucket cannot exceed the max
			}
			if hi < lo {
				hi = lo
			}
			frac := 0.0
			if c > 0 {
				frac = (target - cum) / float64(c)
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return float64(s.Max)
}

// CumBucket is one cumulative bucket boundary of an exported histogram.
type CumBucket struct {
	UpperNS uint64 // inclusive upper bound of the cumulative count
	Count   uint64 // observations <= UpperNS
}

// Cumulative returns the cumulative bucket counts at octave (power of
// two) granularity — the coarse boundary set used for the Prometheus
// text exposition, where 600 fine buckets per series would bloat every
// scrape. The final entry always carries the total count.
func (s HistSnapshot) Cumulative() []CumBucket {
	var out []CumBucket
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		// Emit a point at each octave end (last sub-bucket of a group).
		if i%histSub == histSub-1 || i == len(s.Counts)-1 {
			out = append(out, CumBucket{UpperNS: bucketUpper(i) - 1, Count: cum})
		}
	}
	return out
}
