package livebind

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"ulipc/internal/core"
	"ulipc/internal/fault"
	"ulipc/internal/metrics"
)

// parkOne starts a goroutine that parks on s and sets ran once it is
// granted, and returns after it is parked; done closes when it exits.
func parkOne(s *Semaphore, ran *atomic.Bool) (done chan struct{}) {
	done = make(chan struct{})
	go func() {
		s.P()
		ran.Store(true)
		close(done)
	}()
	for s.Sleeping() == 0 {
		runtime.Gosched()
	}
	return done
}

// At GOMAXPROCS 1 a Grant that wakes a parked waiter runs it before
// Grant returns; a plain V only makes it runnable. The runtime's
// fairness check takes the global run queue first on one schedule in
// 61, where the granter may win, so the test counts over many trials.
func TestGrantRunsWaiterBeforeReturning(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const trials = 200
	for _, grant := range []bool{true, false} {
		first := 0
		for i := 0; i < trials; i++ {
			s := NewSemaphore(0)
			a := &Actor{sems: []actorSem{s}}
			var ran atomic.Bool
			done := parkOne(s, &ran)
			if grant {
				a.Grant(0)
			} else {
				a.V(0)
			}
			if ran.Load() {
				first++
			}
			<-done
		}
		switch {
		case grant && first < trials*9/10:
			t.Errorf("Grant ran the waiter first in %d of %d trials, want at least 90%%", first, trials)
		case !grant && first > trials/10:
			t.Errorf("V ran the waiter first in %d of %d trials, want at most 10%%", first, trials)
		}
		t.Logf("grant=%v: waiter ran before return in %d of %d", grant, first, trials)
	}
}

// A WakeDrop fault swallows a Grant exactly as it swallows a V: the
// drop is counted, the parked waiter stays parked, no token is left,
// no wake-up is counted, and the granter does not yield.
func TestGrantDropsWakeLikeV(t *testing.T) {
	for _, grant := range []bool{false, true} {
		inj := fault.NewInjector(fault.Plan{Seed: 3, DropWake: 1.0})
		s := NewSemaphore(0)
		pm := &metrics.Proc{}
		a := &Actor{sems: []actorSem{s}, FH: inj.Hook(1), M: pm}
		var ran atomic.Bool
		done := parkOne(s, &ran)
		if grant {
			a.Grant(0)
		} else {
			a.V(0)
		}
		if drops := inj.Counts().WakeDrops; drops != 1 {
			t.Errorf("grant=%v: WakeDrops = %d, want 1", grant, drops)
		}
		if n, c := s.Sleeping(), s.Count(); n != 1 || c != 0 {
			t.Errorf("grant=%v: %d parked, count %d after a dropped wake; want 1, 0", grant, n, c)
		}
		if w := pm.Wakeups.Load(); w != 0 || ran.Load() {
			t.Errorf("grant=%v: %d wake-ups counted, waiter ran = %v; want none", grant, w, ran.Load())
		}
		if v := pm.SemV.Load(); v != 1 {
			t.Errorf("grant=%v: SemV = %d, want 1", grant, v)
		}
		s.V() // deliver the lost wake by hand
		<-done
	}
}

// One BSW client on one processor: the request wake is a Grant, so the
// server runs at once, replies while the client's awake flag is still
// set, and parks; the client finds the reply without parking. Each
// round trip then pays one park and one wake, where two Vs cost two.
func TestGrantOneParkPerRoundTrip(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const msgs = 10000
	ms := metrics.NewSet()
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, Metrics: ms})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown(context.Background())
	driveEcho(t, sys, msgs)
	total := ms.Total()
	trips := float64(msgs + 2) // connect and disconnect are round trips too
	blocks := float64(total.Blocks) / trips
	wakes := float64(total.Wakeups) / trips
	if blocks > 1.25 || wakes > 1.25 {
		t.Errorf("%.3f blocks and %.3f wake-ups per round trip, want at most 1.25 each", blocks, wakes)
	}
	t.Logf("%.3f blocks, %.3f wake-ups per round trip", blocks, wakes)
}
