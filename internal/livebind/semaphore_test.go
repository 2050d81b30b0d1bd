package livebind

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ulipc/internal/core"
)

func TestSemaphorePCtxConsumesToken(t *testing.T) {
	s := NewSemaphore(2)
	if _, err := s.PCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.Count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

func TestSemaphorePCtxPreCancelled(t *testing.T) {
	s := NewSemaphore(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.PCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := s.Count(); got != 1 {
		t.Fatalf("a cancelled wait must not consume a token: count = %d", got)
	}
}

func TestSemaphorePCtxDeadline(t *testing.T) {
	s := NewSemaphore(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.PCtx(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline not honoured: waited %v", elapsed)
	}
	if got := s.Waiters(); got != 0 {
		t.Fatalf("cancelled waiter not unlinked: waiters = %d", got)
	}
	// A V after the cancellation must not be swallowed by the dead waiter.
	s.V()
	if got := s.Count(); got != 1 {
		t.Fatalf("count = %d, want 1 after V", got)
	}
}

func TestSemaphorePCtxWokenByV(t *testing.T) {
	s := NewSemaphore(0)
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := s.PCtx(ctx)
		done <- err
	}()
	for s.Waiters() == 0 {
		time.Sleep(10 * time.Microsecond)
	}
	s.V()
	if err := <-done; err != nil {
		t.Fatalf("granted wait returned %v", err)
	}
	if got := s.Count(); got != 0 {
		t.Fatalf("count = %d, want 0 (token consumed by grant)", got)
	}
}

func TestSemaphoreCloseUnblocksWaiters(t *testing.T) {
	s := NewSemaphore(0)
	ctxErr := make(chan error, 1)
	plainDone := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := s.PCtx(ctx)
		ctxErr <- err
	}()
	go func() {
		s.P()
		close(plainDone)
	}()
	// Only the PCtx waiter is awaited here. Close marks the semaphore
	// closed before releasing the ring, so the plain P is released
	// whether or not it has parked yet.
	for s.Waiters() < 1 {
		time.Sleep(10 * time.Microsecond)
	}
	s.Close()
	if err := <-ctxErr; !errors.Is(err, core.ErrShutdown) {
		t.Fatalf("PCtx after Close = %v, want ErrShutdown", err)
	}
	select {
	case <-plainDone:
	case <-time.After(5 * time.Second):
		t.Fatal("plain P not released by Close")
	}
	// Later calls observe the closed state without blocking; Vs are dropped.
	if _, err := s.PCtx(context.Background()); !errors.Is(err, core.ErrShutdown) {
		t.Fatalf("PCtx on closed = %v, want ErrShutdown", err)
	}
	s.V()
	if got := s.Count(); got != 0 {
		t.Fatalf("V on closed must be dropped: count = %d", got)
	}
	s.Close() // idempotent
}

// TestSemaphoreTokenConservationStress is the wake-token accounting
// invariant under -race: with waits cancelling at random around
// concurrent Vs, every issued token is either consumed by exactly one
// successful wait or still in the count at quiescence — a cancelled
// wait never swallows one.
func TestSemaphoreTokenConservationStress(t *testing.T) {
	const (
		waiters   = 8
		vTotal    = 2000
		perWaiter = 1000
	)
	s := NewSemaphore(0)
	var consumed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perWaiter; i++ {
				// Deadlines from "already expired" to ~200µs straddle the
				// park/grant race on both sides.
				d := time.Duration(rng.Intn(200)) * time.Microsecond
				ctx, cancel := context.WithTimeout(context.Background(), d)
				_, err := s.PCtx(ctx)
				cancel()
				switch {
				case err == nil:
					consumed.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
				case errors.Is(err, context.Canceled):
				default:
					t.Errorf("unexpected PCtx error: %v", err)
					return
				}
			}
		}(g)
	}
	var vg sync.WaitGroup
	vg.Add(1)
	go func() {
		defer vg.Done()
		for i := 0; i < vTotal; i++ {
			s.V()
			if i%64 == 0 {
				time.Sleep(time.Microsecond)
			}
		}
	}()
	vg.Wait()
	wg.Wait()
	if got := s.Waiters(); got != 0 {
		t.Fatalf("waiters = %d at quiescence", got)
	}
	if got, want := consumed.Load()+s.Count(), int64(vTotal); got != want {
		t.Fatalf("token conservation violated: consumed %d + count %d = %d, want %d",
			consumed.Load(), s.Count(), got, want)
	}
}
