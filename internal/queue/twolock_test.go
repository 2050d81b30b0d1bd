package queue

import (
	"runtime"
	"sync"
	"testing"

	"ulipc/internal/core"
)

// TestTwoLockEmptyConcurrentWithDequeue is the regression test for the
// lock-free Empty rewrite: Empty used to take the head mutex, so a BSLS
// spin loop polling it would serialize against dequeuers. It is now two
// atomic loads that race benignly with Dequeue (the loaded dummy may be
// freed between them). Under -race this certifies the poll is
// data-race-free; the assertions check it still converges to the truth
// once the queue is quiescent.
func TestTwoLockEmptyConcurrentWithDequeue(t *testing.T) {
	const total = 100_000
	q, err := NewTwoLock(64)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the BSLS-style poller
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = q.Empty()
			runtime.Gosched() // keep the poll cooperative on GOMAXPROCS=1
		}
	}()
	go func() { // producer
		defer wg.Done()
		for i := 0; i < total; i++ {
			for !q.Enqueue(core.Msg{Val: float64(i)}) {
				runtime.Gosched()
			}
		}
	}()
	for i := 0; i < total; i++ { // consumer (main goroutine)
		for {
			if m, ok := q.Dequeue(); ok {
				if m.Val != float64(i) {
					t.Fatalf("out of order at %d: %+v", i, m)
				}
				break
			}
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	if !q.Empty() {
		t.Fatal("quiescent drained queue reports non-empty")
	}
	q.Enqueue(core.Msg{})
	if q.Empty() {
		t.Fatal("quiescent non-empty queue reports empty")
	}
}

// TestTwoLockEnqueue checks the one enqueue path end to end: each
// Enqueue draws its node from Pool(), messages leave in FIFO order, a
// drained pool reads as queue-full, and every dequeue returns its old
// dummy so the pool is whole again (capacity free plus the dummy).
func TestTwoLockEnqueue(t *testing.T) {
	q, err := NewTwoLock(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if !q.Enqueue(core.Msg{Seq: int32(i)}) {
			t.Fatalf("enqueue %d refused below capacity", i)
		}
	}
	if q.Enqueue(core.Msg{Seq: 8}) {
		t.Fatal("enqueue past capacity accepted")
	}
	if free := q.Pool().FreeCount(); free != 0 {
		t.Fatalf("pool free %d with the queue full, want 0", free)
	}
	for i := 0; i < 8; i++ {
		m, ok := q.Dequeue()
		if !ok || m.Seq != int32(i) {
			t.Fatalf("dequeue %d: %+v, %v", i, m, ok)
		}
	}
	if free := q.Pool().FreeCount(); free != 8 {
		t.Fatalf("pool free %d after draining, want 8", free)
	}
}
