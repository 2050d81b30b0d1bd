package workload

import (
	"testing"
	"time"

	"ulipc/internal/core"
)

// TestOpenLoopSmoke is the CI overload cell: an open-loop run far past
// this host's capacity must shed and fast-reject the excess (nonzero
// Sheds and Overloads), still deliver goodput, keep the admitted
// messages' p99 under the deadline, and conserve every payload lease
// (RunOpenLoop fails the run on a dirty post-run audit).
//
// The accounting identities and the lease audit hold on every run, but
// whether a given admitted message beats a 1ms deadline on a
// single-P host is scheduler luck: one long preemption gap expires the
// whole queue (correctly — shed-everything is the doctrine's answer to
// a stalled server). The schedule-dependent assertions therefore
// accumulate over a few seeds instead of gating a single interleaving.
func TestOpenLoopSmoke(t *testing.T) {
	const dl = time.Millisecond
	var sheds, rejects, good int64
	for attempt := 0; attempt < 4; attempt++ {
		res, err := RunOpenLoop(OpenLoopConfig{
			Alg:       core.BSLS,
			Clients:   2,
			Rate:      2_000_000, // far past any plausible single-CPU capacity
			Duration:  250 * time.Millisecond,
			Deadline:  dl,
			Seed:      7 + uint64(attempt),
			HighWater: 48,
			RetryCap:  32,
			PaySize:   64,
		})
		if err != nil {
			t.Fatalf("RunOpenLoop: %v", err)
		}
		t.Logf("offered=%d admitted=%d good=%d sheds=%d stranded=%d rejects=%d p99=%.0fns",
			res.Offered, res.Admitted, res.Good, res.All.Sheds, res.Stranded, res.All.Overloads, res.P99Ns)
		// Per-run invariants: these hold on every interleaving.
		if res.Offered != res.Admitted+res.Rejected+res.AllocFails {
			t.Errorf("load-balance identity broken: offered %d != admitted %d + rejected %d + allocFails %d",
				res.Offered, res.Admitted, res.Rejected, res.AllocFails)
		}
		if res.Unanswered != res.All.Sheds+res.Stranded {
			// Every admitted message is collected, shed, or still queued at
			// teardown; a mismatch means a reply was lost (or a shed
			// double-counted).
			t.Errorf("unanswered %d != sheds %d + stranded %d", res.Unanswered, res.All.Sheds, res.Stranded)
		}
		if lim := float64(dl.Nanoseconds()); res.P99Ns > lim {
			t.Errorf("goodput p99 %v ns exceeds the %v ns deadline", res.P99Ns, lim)
		}
		sheds += res.All.Sheds
		rejects += res.All.Overloads
		good += res.Good
		if sheds > 0 && rejects > 0 && (good > 0 || raceEnabled) {
			return
		}
	}
	if sheds == 0 {
		t.Errorf("expected sheds under overload, got 0 across all attempts")
	}
	if rejects == 0 {
		t.Errorf("expected admission rejects under overload, got 0 across all attempts")
	}
	// The race detector starves the server so thoroughly that zero
	// goodput is the expected steady state; the bare build must deliver
	// some within-deadline completions across the attempts.
	if good == 0 && !raceEnabled {
		t.Errorf("expected nonzero goodput under overload across all attempts")
	}
}

// TestOpenLoopUnderCapacity: below capacity nothing is shed or
// rejected, and (almost) everything offered becomes goodput.
func TestOpenLoopUnderCapacity(t *testing.T) {
	res, err := RunOpenLoop(OpenLoopConfig{
		Alg:      core.BSW,
		Clients:  1,
		Rate:     5_000, // trivially sustainable
		Duration: 200 * time.Millisecond,
		Deadline: 20 * time.Millisecond,
		Seed:     3,
	})
	if err != nil {
		t.Fatalf("RunOpenLoop: %v", err)
	}
	if res.All.Sheds != 0 || res.Rejected != 0 {
		t.Errorf("under-capacity cell shed %d / rejected %d, want 0/0", res.All.Sheds, res.Rejected)
	}
	if res.Offered == 0 || res.Good != res.Admitted {
		t.Errorf("under-capacity cell: offered %d admitted %d good %d, want all admitted good",
			res.Offered, res.Admitted, res.Good)
	}
}

// TestOpenLoopBurst: the on/off arrival process still satisfies the
// accounting identities and generates a nonzero offered load.
func TestOpenLoopBurst(t *testing.T) {
	res, err := RunOpenLoop(OpenLoopConfig{
		Alg:      core.BSA,
		Clients:  2,
		Rate:     50_000,
		Duration: 200 * time.Millisecond,
		Deadline: 10 * time.Millisecond,
		Burst:    true,
		Seed:     11,
	})
	if err != nil {
		t.Fatalf("RunOpenLoop: %v", err)
	}
	if res.Offered == 0 {
		t.Fatal("burst cell offered nothing")
	}
	if res.Offered != res.Admitted+res.Rejected+res.AllocFails {
		t.Errorf("load-balance identity broken: %+v", res)
	}
}

// TestOpenLoopSlowGeneratorKeepsWindow: a generator that cannot keep
// up with its arrival schedule still stops at the end of the window.
// Producing every scheduled arrival of a 1/ns rate would take minutes
// and trip the watchdog instead.
func TestOpenLoopSlowGeneratorKeepsWindow(t *testing.T) {
	const window = 50 * time.Millisecond
	start := time.Now()
	res, err := RunOpenLoop(OpenLoopConfig{
		Alg:       core.BSLS,
		Clients:   1,
		Rate:      1e9, // one arrival per nanosecond: no generator keeps up
		Duration:  window,
		Deadline:  time.Millisecond,
		HighWater: 16,
		Watchdog:  5 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunOpenLoop: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("a %v window ran %v", window, took)
	}
	if res.Offered == 0 || res.Offered >= int64(window.Nanoseconds()) {
		t.Errorf("offered %d, want some but fewer than the %d scheduled", res.Offered, window.Nanoseconds())
	}
}

// TestOpenLoopGroupOverload drives a sharded system past high water:
// admission rejects sends on the saturated home shards, and the cell
// still tears down cleanly.
func TestOpenLoopGroupOverload(t *testing.T) {
	res, err := RunOpenLoop(OpenLoopConfig{
		Alg:       core.BSLS,
		Clients:   4,
		Rate:      2_000_000,
		Duration:  250 * time.Millisecond,
		Deadline:  time.Millisecond,
		Seed:      5,
		HighWater: 16,
		RetryCap:  16,
		Shards:    2,
	})
	if err != nil {
		t.Fatalf("RunOpenLoop: %v", err)
	}
	if res.All.Overloads == 0 {
		t.Errorf("expected admission rejects in the overloaded group, got 0")
	}
}

// TestExpNs: the exponential sampler's mean must track 1/rate, and the
// stream must be deterministic for a fixed seed.
func TestExpNs(t *testing.T) {
	s1, s2 := uint64(42), uint64(42)
	var sum int64
	const n = 20_000
	perNs := 1.0 / 10_000 // mean gap 10µs
	for i := 0; i < n; i++ {
		d := expNs(&s1, perNs)
		if d < 1 {
			t.Fatalf("gap %d < 1", d)
		}
		sum += d
	}
	mean := float64(sum) / n
	if mean < 9_000 || mean > 11_000 {
		t.Errorf("mean gap %.0f ns, want ~10000", mean)
	}
	if a, b := expNs(&s2, perNs), expNs(&s2, perNs); a == b {
		t.Errorf("consecutive draws identical (%d): rng not advancing", a)
	}
}
