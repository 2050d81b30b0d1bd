package livebind

import (
	"context"
	"runtime"
	"sync"
	"testing"
)

// TestSemaphorePCtxCancelVRaceExactlyOnce races a PCtx cancellation
// against a concurrent V over many rounds and checks the wake token is
// conserved exactly in every interleaving: either the waiter consumed
// it (returns nil, count stays 0) or the cancellation was decided first
// and the V credited the count (returns ctx.Err(), count is exactly 1). A lost
// token would strand the next sleeper forever; a doubled one would
// admit a consumer with no message. Run under -race.
func TestSemaphorePCtxCancelVRaceExactlyOnce(t *testing.T) {
	for i := 0; i < 500; i++ {
		s := NewSemaphore(0)
		ctx, cancel := context.WithCancel(context.Background())
		res := make(chan error, 1)
		go func() {
			_, err := s.PCtx(ctx)
			res <- err
		}()
		for s.Waiters() == 0 { // waiter parked before the race starts
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
