package livebind

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ulipc/internal/core"
)

// The waiting array's shape checks: FIFO direct hand-off, hole
// recycling under cancel storms, and the cancel-vs-V race resolved
// exactly once. Run under -race.

func TestWaitArrayInitialCredits(t *testing.T) {
	s := NewWaitArraySemaphore(2)
	if s.Count() != 2 {
		t.Fatalf("initial count %d, want 2", s.Count())
	}
	if s.P() || s.P() { // two credits: neither P may sleep
		t.Fatal("P slept with credits available")
	}
	if s.Count() != 0 {
		t.Fatalf("count %d after two Ps, want 0", s.Count())
	}
}

func TestWaitArrayPVConservation(t *testing.T) {
	s := NewWaitArraySemaphore(0)
	const waiters, tokens = 8, 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.P()
		}()
	}
	for s.Sleeping() != waiters {
		runtime.Gosched()
	}
	for i := 0; i < tokens; i++ {
		if !s.V() {
			t.Error("V with parked waiters woke nobody")
		}
	}
	wg.Wait()
	if c := s.Count(); c != 0 {
		t.Fatalf("count %d after balanced P/V, want 0", c)
	}
}

func TestWaitArrayPCtxCancelVRaceExactlyOnce(t *testing.T) {
	for i := 0; i < 500; i++ {
		s := NewWaitArraySemaphore(0)
		ctx, cancel := context.WithCancel(context.Background())
		res := make(chan error, 1)
		go func() {
			_, err := s.PCtx(ctx)
			res <- err
		}()
		for s.Waiters() == 0 {
			runtime.Gosched()
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); cancel() }()
		go func() { defer wg.Done(); s.V() }()
		wg.Wait()

		err := <-res
		if count := s.Count(); err == nil {
			if count != 0 {
				t.Fatalf("round %d: token consumed but count = %d (duplicated)", i, count)
			}
		} else {
			if err != context.Canceled {
				t.Fatalf("round %d: PCtx = %v, want nil or context.Canceled", i, err)
			}
			if count != 1 {
				t.Fatalf("round %d: cancelled wait left count = %d, want exactly the V's 1", i, count)
			}
		}
		if w := s.Waiters(); w != 0 {
			t.Fatalf("round %d: %d waiters leaked", i, w)
		}
	}
}

// A V racing the first waiter's cancellation must still reach a
// still-parked waiter rather than the count: the token moves along the
// array, not through it.
func TestWaitArrayHandBackGrantsNextWaiter(t *testing.T) {
	for i := 0; i < 200; i++ {
		s := NewWaitArraySemaphore(0)
		ctx, cancel := context.WithCancel(context.Background())
		first := make(chan error, 1)
		go func() {
			_, err := s.PCtx(ctx)
			first <- err
		}()
		for s.Waiters() == 0 {
			runtime.Gosched()
		}
		second := make(chan error, 1)
		go func() {
			_, err := s.PCtx(context.Background())
			second <- err
		}()
		for s.Waiters() != 2 {
			runtime.Gosched()
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); cancel() }()
		go func() { defer wg.Done(); s.V() }()
		wg.Wait()

		err1 := <-first
		if err1 == nil {
			// First waiter won the grant; feed the second one.
			s.V()
		}
		if err2 := <-second; err2 != nil {
			t.Fatalf("round %d: uncancelled second waiter failed: %v", i, err2)
		}
		if c := s.Count(); c != 0 {
			t.Fatalf("round %d: count %d after all waits settled, want 0", i, c)
		}
	}
}

// FIFO: tokens are granted in park order, across plain, Background and
// cancellable waiters alike.
func TestWaitArrayFIFOGrant(t *testing.T) {
	s := NewWaitArraySemaphore(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waits := []func(){
		func() { s.P() },
		func() { s.PCtx(context.Background()) },
		func() { s.PCtx(ctx) },
		func() { s.P() },
		func() { s.PCtx(ctx) },
		func() { s.PCtx(context.Background()) },
	}
	n := len(waits)
	order := make(chan int, n)
	for i, wait := range waits {
		go func() {
			wait()
			order <- i
		}()
		// Park strictly one at a time so array order equals loop order.
		for int64(s.Waiters())+s.Sleeping() != int64(i+1) {
			runtime.Gosched()
		}
	}
	for i := 0; i < n; i++ {
		s.V()
		if got := <-order; got != i {
			t.Fatalf("grant %d went to waiter %d, want FIFO", i, got)
		}
	}
}

// A cancel storm with no V traffic must not leak ring slots: the hole
// compaction keeps the array bounded and a subsequent P/V pair still
// pairs up correctly.
func TestWaitArrayCancelStorm(t *testing.T) {
	s := NewWaitArraySemaphore(0)
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		const parked = 16
		ctx, cancel := context.WithCancel(context.Background())
		for i := 0; i < parked; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.PCtx(ctx); err != context.Canceled {
					t.Errorf("storm wait: %v, want context.Canceled", err)
				}
			}()
		}
		for s.Waiters() != parked {
			runtime.Gosched()
		}
		cancel()
		wg.Wait()
		if w := s.Waiters(); w != 0 {
			t.Fatalf("round %d: %d waiters leaked", round, w)
		}
		if c := s.Count(); c != 0 {
			t.Fatalf("round %d: count %d minted by cancellations", round, c)
		}
	}
	// The array still works after the storms.
	done := make(chan struct{})
	go func() { s.P(); close(done) }()
	for s.Sleeping() == 0 {
		runtime.Gosched()
	}
	s.V()
	<-done
}

// A waiter that stays parked across grants (an idle pool worker beside
// a busy one) keeps the ring non-empty forever, so the ring must reuse
// its consumed prefix rather than grow by a slot per grant.
func TestWaitArrayRingBounded(t *testing.T) {
	s := NewWaitArraySemaphore(0)
	const waiters, grants = 2, 2000
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s.P()
			}
		}()
	}
	for i := 0; i < grants; i++ {
		for s.Sleeping() != waiters {
			runtime.Gosched()
		}
		s.V()
	}
	for s.Sleeping() != waiters {
		runtime.Gosched()
	}
	s.mu.Lock()
	n, c := len(s.ring), cap(s.ring)
	s.mu.Unlock()
	stop.Store(true)
	s.Close()
	wg.Wait()
	if n > waiters || c > 4*waiters {
		t.Fatalf("ring len %d, cap %d after %d grants to %d waiters; want len <= %d", n, c, grants, waiters, waiters)
	}
}

func TestWaitArrayCloseUnblocks(t *testing.T) {
	s := NewWaitArraySemaphore(0)
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(2)
	go func() { defer wg.Done(); _, err := s.PCtx(context.Background()); errs <- err }()
	go func() { defer wg.Done(); _, err := s.PCtx(context.Background()); errs <- err }()
	for s.Waiters() != 2 {
		runtime.Gosched()
	}
	plain := make(chan bool, 1)
	go func() { plain <- s.P() }()
	for s.Sleeping() == 0 {
		runtime.Gosched()
	}
	s.Close()
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, core.ErrShutdown) {
			t.Fatalf("closed PCtx returned %v, want ErrShutdown", err)
		}
	}
	if !<-plain {
		t.Fatal("parked plain P unblocked by Close must report it slept")
	}
	if _, err := s.PCtx(context.Background()); !errors.Is(err, core.ErrShutdown) {
		t.Fatalf("post-close PCtx returned %v", err)
	}
	if s.V() {
		t.Fatal("V on closed semaphore woke someone")
	}
}

// Mixed concurrent P/PCtx traffic against V producers with rolling
// cancellations: every token is either acquired or left on the count, so
// issued Vs minus successful acquisitions must equal the final count.
// Run under -race.
func TestWaitArrayMixedStress(t *testing.T) {
	s := NewWaitArraySemaphore(0)
	const consumers, rounds = 8, 250
	var acquired, issued int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				ctx, cancel := context.WithCancel(context.Background())
				if (i+j)%3 == 0 {
					go func() { runtime.Gosched(); cancel() }()
				}
				_, err := s.PCtx(ctx)
				cancel()
				if err == nil {
					mu.Lock()
					acquired++
					mu.Unlock()
				}
			}
		}(i)
	}
	// Feed tokens until every consumer settles; cancelled waits consume
	// none, so the feeder may overshoot — that surplus must sit on the
	// count, not vanish.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for feeding := true; feeding; {
		select {
		case <-done:
			feeding = false
		default:
			s.V()
			mu.Lock()
			issued++
			mu.Unlock()
			runtime.Gosched()
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if c := s.Count(); c != issued-acquired {
		t.Fatalf("count %d, want issued(%d) - acquired(%d) = %d", c, issued, acquired, issued-acquired)
	}
	if w := s.Waiters(); w != 0 {
		t.Fatalf("%d waiters leaked", w)
	}
}
