package livebind

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ulipc/internal/core"
)

// The park rule of Semaphore.wait: plain P and nil-Done contexts park on
// a single receive, a context the slot's previous wait used parks on a
// single receive behind an AfterFunc registration, any other context
// parks in a select. These tests hold each path to the same grant/cancel
// contract, and check what the slot pool promises. Run under -race.

// parkedWatch reports whether the semaphore's only parked waiter relies
// on its slot's AfterFunc registration (the armed path).
func parkedWatch(s *Semaphore) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.ring[s.head:] {
		if w.state == waWaiting {
			return w.watch != nil
		}
	}
	return false
}

// checkFreeSlots asserts the free-list invariant: a free slot is listed
// once, held by nobody and carries no pending send, so no recycled wait
// can receive a grant meant for an earlier one.
func checkFreeSlots(t *testing.T, s *Semaphore) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	listed := map[*waSlot]bool{}
	for w := s.free; w != nil; w = w.next {
		if listed[w] {
			t.Fatal("a slot is on the free list twice")
		}
		listed[w] = true
		if n := len(w.ch); n != 0 || w.held || w.inRing {
			t.Fatalf("free slot: %d pending sends, held=%v inRing=%v", n, w.held, w.inRing)
		}
	}
}

// TestSemaphoreCancelVExactlyOnceBothPaths races a cancellation against
// a V on a parked PCtx, on the select path (a context the slot has not
// seen) and on the armed path (the slot's previous wait used the same
// context). Either the waiter consumed the token (nil, count 0) or it
// was cancelled before the grant (context.Canceled, count 1).
func TestSemaphoreCancelVExactlyOnceBothPaths(t *testing.T) {
	for _, armed := range []bool{false, true} {
		name := map[bool]string{false: "select", true: "armed"}[armed]
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 300; i++ {
				s := NewSemaphore(0)
				ctx, cancel := context.WithCancel(context.Background())
				warm := make(chan error, 1)
				res := make(chan error, 1)
				go func() {
					if armed {
						// The first wait records the context on the slot.
						_, err := s.PCtx(ctx)
						warm <- err
					}
					_, err := s.PCtx(ctx)
					res <- err
				}()
				if armed {
					for s.Waiters() == 0 {
						runtime.Gosched()
					}
					s.V()
					if err := <-warm; err != nil {
						t.Fatalf("round %d: warm-up wait: %v", i, err)
					}
				}
				for s.Waiters() == 0 {
					runtime.Gosched()
				}
				if got := parkedWatch(s); got != armed {
					t.Fatalf("round %d: parked on the armed path = %v, want %v", i, got, armed)
				}
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); cancel() }()
				go func() { defer wg.Done(); s.V() }()
				wg.Wait()

				err := <-res
				switch count := s.Count(); {
				case err == nil && count != 0:
					t.Fatalf("round %d: token consumed but count = %d", i, count)
				case err != nil && !errors.Is(err, context.Canceled):
					t.Fatalf("round %d: PCtx = %v, want nil or context.Canceled", i, err)
				case err != nil && count != 1:
					t.Fatalf("round %d: cancelled wait left count = %d, want 1", i, count)
				}
				if w := s.Waiters(); w != 0 {
					t.Fatalf("round %d: %d waiters leaked", i, w)
				}
				s.Close()
			}
		})
	}
}

// TestSemaphoreRecycledSlotNoStaleGrant replays, step by step, the two
// interleavings in which a V absorbs a cancelled slot (a hole) before
// its waiter has let go of it. The slot must not be handed to another
// wait until its own waiter has released it: recycled early, it would
// pass the first waiter's expiry to the next one, or be freed twice.
func TestSemaphoreRecycledSlotNoStaleGrant(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := ctx.Done()

	t.Run("expired", func(t *testing.T) {
		s := NewSemaphore(0)
		s.mu.Lock()
		w := s.pushLocked(true)
		w.watch = done // parked on the armed path
		s.mu.Unlock()
		s.expire(w, done) // the registration fires: a hole, and a wake in w.ch
		if s.V() {        // absorbs the hole before the waiter runs
			t.Fatal("V granted a cancelled slot")
		}
		s.mu.Lock()
		next := s.pushLocked(false)
		s.mu.Unlock()
		if next == w {
			t.Fatal("slot recycled while its waiter still owed a receive")
		}
		<-w.ch // the waiter runs at last
		s.mu.Lock()
		s.releaseLocked(w)
		s.mu.Unlock()
		checkFreeSlots(t, s)
	})

	t.Run("select", func(t *testing.T) {
		s := NewSemaphore(0)
		s.mu.Lock()
		w := s.pushLocked(true)
		s.cancelLocked(w) // wait's select arm, ctx.Done first
		s.mu.Unlock()
		if s.V() { // absorbs the hole before the waiter's release
			t.Fatal("V granted a cancelled slot")
		}
		s.mu.Lock()
		s.releaseLocked(w)
		s.mu.Unlock()
		checkFreeSlots(t, s)
		if s.Count() != 1 {
			t.Fatalf("count %d, want the V credited", s.Count())
		}
	})
}

// TestSemaphoreSlotChurnConservation churns a few slots through every
// way a wait can end — granted, cancelled in a select, expired by an
// armed registration, plain — with Vs racing all of it. A waiter
// admitted without a token breaks the conservation check, a robbed one
// wedges the run, and the free-list invariant is checked as it goes.
func TestSemaphoreSlotChurnConservation(t *testing.T) {
	s := NewSemaphore(0)
	const consumers, rounds, genLen = 4, 800, 16
	// All consumers share each generation's context, so most slots arm
	// on it; the feeder cancels generations as it goes, expiring every
	// armed wait parked at that moment.
	gens := make([]context.Context, rounds/genLen)
	cancels := make([]context.CancelFunc, len(gens))
	for i := range gens {
		gens[i], cancels[i] = context.WithCancel(context.Background())
		defer cancels[i]()
	}
	var acquired, issued atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < consumers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				var err error
				switch (g + j) % 4 {
				case 0:
					s.P()
				case 1:
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(j%5)*10*time.Microsecond)
					_, err = s.PCtx(ctx)
					cancel()
				default:
					_, err = s.PCtx(gens[j/genLen])
				}
				if err == nil {
					acquired.Add(1)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	deadline := time.Now().Add(20 * time.Second)
	for n, gen := 0, 0; ; n++ {
		select {
		case <-done:
			checkFreeSlots(t, s)
			if c := s.Count(); c != issued.Load()-acquired.Load() {
				t.Fatalf("count %d, want issued(%d) - acquired(%d)", c, issued.Load(), acquired.Load())
			}
			if w, p := s.Waiters(), s.Sleeping(); w != 0 || p != 0 {
				t.Fatalf("%d cancellable and %d plain waiters leaked", w, p)
			}
			return
		default:
			s.V()
			issued.Add(1)
			if n%16 == 0 {
				checkFreeSlots(t, s)
			}
			if n%24 == 23 && gen < len(gens) {
				cancels[gen]()
				gen++
			}
			if time.Now().After(deadline) {
				t.Fatalf("consumers wedged with %d Vs issued: a parked wait lost its slot", issued.Load())
			}
			runtime.Gosched()
		}
	}
}

// regCountCtx is a never-ending context that counts the AfterFunc
// registrations made on it and not yet stopped. context.AfterFunc uses
// the method because the context is no cancelCtx of the standard
// library's.
type regCountCtx struct {
	context.Context
	done        chan struct{}
	mu          sync.Mutex
	live, total int
}

func (c *regCountCtx) Done() <-chan struct{} { return c.done }

func (c *regCountCtx) AfterFunc(func()) func() bool {
	c.mu.Lock()
	c.live++
	c.total++
	c.mu.Unlock()
	var once sync.Once
	return func() (stopped bool) {
		once.Do(func() {
			stopped = true
			c.mu.Lock()
			c.live--
			c.mu.Unlock()
		})
		return stopped
	}
}

func (c *regCountCtx) counts() (live, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live, c.total
}

// TestSemaphoreCloseStopsRegistrations builds and shuts down 1000
// systems under one parent context, each serving a few round trips on
// it so the client's and the server's slots arm, and requires every
// registration to be stopped by the end: Shutdown closes each semaphore,
// and Close stops what its slots armed.
func TestSemaphoreCloseStopsRegistrations(t *testing.T) {
	systems := 1000
	if testing.Short() {
		systems = 100
	}
	ctx := &regCountCtx{Context: context.Background(), done: make(chan struct{})}
	for i := 0; i < systems; i++ {
		sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1})
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() {
			_, err := sys.Server().ServeCtx(ctx, nil)
			served <- err
		}()
		cl, err := sys.Client(0)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpEcho, Seq: int32(j)}); err != nil {
				t.Fatalf("system %d: round trip %d: %v", i, j, err)
			}
		}
		if err := sys.Shutdown(context.Background()); err != nil {
			t.Fatalf("system %d: shutdown: %v", i, err)
		}
		if err := <-served; err != nil {
			t.Fatalf("system %d: server: %v", i, err)
		}
	}
	live, total := ctx.counts()
	if total == 0 {
		t.Fatal("no wait ever armed a registration: the test exercised nothing")
	}
	if live != 0 {
		t.Fatalf("%d of %d AfterFunc registrations still live after every system shut down", live, total)
	}
	t.Logf("%d registrations armed and stopped", total)
}

// BenchmarkSemaphoreHandoff is the V→P hand-off pair through each park
// path: two goroutines, two semaphores, every V waking the other side.
// The grant case wakes the peer with Actor.Grant instead: the peer runs
// at once and its V finds the benchmark loop not yet parked, so a pair
// parks once where the others park twice.
func BenchmarkSemaphoreHandoff(b *testing.B) {
	shared, cancel := context.WithCancel(context.Background())
	defer cancel()
	plain := func(s *Semaphore) { s.P() }
	for _, bc := range []struct {
		name  string
		wait  func(*Semaphore)
		grant bool
	}{
		{name: "plain", wait: plain},
		{name: "background", wait: func(s *Semaphore) { s.PCtx(context.Background()) }},
		{name: "shared", wait: func(s *Semaphore) { s.PCtx(shared) }},
		{name: "percall", wait: func(s *Semaphore) {
			ctx, cancel := context.WithTimeout(shared, time.Minute)
			s.PCtx(ctx)
			cancel()
		}},
		{name: "grant", wait: plain, grant: true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ping, pong := NewSemaphore(0), NewSemaphore(0)
			a := &Actor{sems: []actorSem{ping}}
			done := make(chan struct{})
			go func() {
				for i := 0; i < b.N; i++ {
					bc.wait(ping)
					pong.V()
				}
				close(done)
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.grant {
					a.Grant(0)
				} else {
					ping.V()
				}
				bc.wait(pong)
			}
			<-done
		})
	}
}
