package queue

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ulipc/internal/core"
)

func forEachKind(t *testing.T, f func(t *testing.T, kind Kind)) {
	t.Helper()
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) { f(t, kind) })
	}
}

func mustNew(t *testing.T, kind Kind, capacity int) Queue {
	t.Helper()
	q, err := New(kind, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestFIFOOrder(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind Kind) {
		q := mustNew(t, kind, 128)
		for i := 0; i < 100; i++ {
			if !q.Enqueue(core.Msg{Seq: int32(i)}) {
				t.Fatalf("enqueue %d failed", i)
			}
		}
		for i := 0; i < 100; i++ {
			m, ok := q.Dequeue()
			if !ok || m.Seq != int32(i) {
				t.Fatalf("dequeue %d: %+v, %v", i, m, ok)
			}
		}
		if _, ok := q.Dequeue(); ok {
			t.Fatal("dequeue on empty succeeded")
		}
	})
}

func TestEmptyReflectsState(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind Kind) {
		q := mustNew(t, kind, 8)
		if !q.Empty() {
			t.Fatal("fresh queue not empty")
		}
		q.Enqueue(core.Msg{})
		if q.Empty() {
			t.Fatal("non-empty queue reports empty")
		}
		q.Dequeue()
		if !q.Empty() {
			t.Fatal("drained queue not empty")
		}
	})
}

func TestFullBehaviour(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind Kind) {
		q := mustNew(t, kind, 4)
		n := 0
		for q.Enqueue(core.Msg{Seq: int32(n)}) {
			n++
			if n > q.Cap()+1 {
				t.Fatal("queue never fills")
			}
		}
		if n < 4 {
			t.Fatalf("capacity %d below requested 4", n)
		}
		// Dequeue one; an enqueue must succeed again.
		if _, ok := q.Dequeue(); !ok {
			t.Fatal("dequeue failed")
		}
		if !q.Enqueue(core.Msg{Seq: int32(n)}) {
			t.Fatal("enqueue after drain failed")
		}
		// Order preserved across the full/drain cycle.
		want := int32(1)
		for {
			m, ok := q.Dequeue()
			if !ok {
				break
			}
			if m.Seq != want {
				t.Fatalf("seq = %d, want %d", m.Seq, want)
			}
			want++
		}
	})
}

// TestQuickMatchesModel drives each implementation with random
// enqueue/dequeue sequences and compares against a plain-slice model.
func TestQuickMatchesModel(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind Kind) {
		check := func(ops []bool, vals []int32) bool {
			q, err := New(kind, 16)
			if err != nil {
				return false
			}
			var model []int32
			vi := 0
			for _, enq := range ops {
				if enq {
					v := int32(0)
					if vi < len(vals) {
						v = vals[vi]
						vi++
					}
					ok := q.Enqueue(core.Msg{Seq: v})
					modelOK := len(model) < q.Cap()
					if ok != modelOK {
						// List-based queues may admit exactly Cap items;
						// both must agree on accept/reject given the
						// model's view of capacity.
						return false
					}
					if ok {
						model = append(model, v)
					}
				} else {
					m, ok := q.Dequeue()
					if ok != (len(model) > 0) {
						return false
					}
					if ok {
						if m.Seq != model[0] {
							return false
						}
						model = model[1:]
					}
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConcurrentConservation hammers each queue with concurrent
// producers and consumers and checks that no message is lost or
// duplicated and per-producer order is preserved.
func TestConcurrentConservation(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind Kind) {
		const producers = 4
		const perProducer = 2000
		q := mustNew(t, kind, 256)

		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					m := core.Msg{Seq: int32(i), MsgMeta: core.MsgMeta{Client: int32(p)}}
					for !q.Enqueue(m) {
						runtime.Gosched()
					}
				}
			}(p)
		}

		type rec struct {
			seen map[int32][]int32
		}
		const consumers = 2
		recs := make([]rec, consumers)
		var cwg sync.WaitGroup
		var consumed sync.WaitGroup
		consumed.Add(producers * perProducer)
		done := make(chan struct{})
		go func() { consumed.Wait(); close(done) }()
		for c := 0; c < consumers; c++ {
			recs[c] = rec{seen: map[int32][]int32{}}
			cwg.Add(1)
			go func(c int) {
				defer cwg.Done()
				for {
					m, ok := q.Dequeue()
					if ok {
						recs[c].seen[m.Client] = append(recs[c].seen[m.Client], m.Seq)
						consumed.Done()
						continue
					}
					select {
					case <-done:
						return
					default:
						runtime.Gosched()
					}
				}
			}(c)
		}
		wg.Wait()
		cwg.Wait()

		// Conservation + per-producer order within each consumer.
		for p := int32(0); p < producers; p++ {
			total := 0
			for c := 0; c < consumers; c++ {
				seq := recs[c].seen[p]
				total += len(seq)
				for i := 1; i < len(seq); i++ {
					if seq[i] <= seq[i-1] {
						t.Fatalf("consumer %d: producer %d out of order: %d after %d",
							c, p, seq[i], seq[i-1])
					}
				}
			}
			if total != perProducer {
				t.Fatalf("producer %d: %d delivered, want %d", p, total, perProducer)
			}
		}
	})
}

func TestKindNames(t *testing.T) {
	for _, kind := range Kinds() {
		got, err := KindByName(kind.String())
		if err != nil || got != kind {
			t.Errorf("round trip %s: %v %v", kind, got, err)
		}
	}
	if _, err := KindByName("bogus"); err == nil {
		t.Error("bad kind accepted")
	}
	if k, err := KindByName(""); err != nil || k != KindRing {
		t.Error("empty kind must default to the ring")
	}
	var zero Kind
	if zero != KindRing {
		t.Errorf("zero Kind is %s, want ring", zero)
	}
}

func TestNewValidatesCapacity(t *testing.T) {
	for _, kind := range Kinds() {
		if _, err := New(kind, 0); err == nil {
			t.Errorf("%s: zero capacity accepted", kind)
		}
	}
}

func TestRingCapacityRounding(t *testing.T) {
	for _, c := range []struct{ ask, want int }{{1, 2}, {2, 2}, {5, 8}} {
		r, err := NewRing(c.ask)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cap() != c.want {
			t.Fatalf("NewRing(%d).Cap() = %d, want %d", c.ask, r.Cap(), c.want)
		}
	}
}

// TestCapacityOne fills a queue built with capacity 1 and drains it: no
// message may be overwritten and the queue must report full. A ring with
// one slot cannot tell a published slot from a free one, so it
// overwrites and its Dequeue spins forever; each kind therefore runs
// under a deadline that fails the test instead of hanging it.
func TestCapacityOne(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind Kind) {
		q := mustNew(t, kind, 1)
		done := make(chan string, 1)
		go func() {
			// Offer one message more than Cap and drain what was
			// accepted before judging the count, so an overwrite shows
			// up as a lost or hung dequeue.
			n := 0
			for n <= q.Cap() && q.Enqueue(core.Msg{Seq: int32(n)}) {
				n++
			}
			for i := 0; i < n; i++ {
				m, ok := q.Dequeue()
				if !ok || m.Seq != int32(i) {
					done <- fmt.Sprintf("dequeue %d of %d: %+v, %v", i, n, m, ok)
					return
				}
			}
			if n < 1 || n > q.Cap() {
				done <- fmt.Sprintf("accepted %d messages, want 1..Cap() = %d", n, q.Cap())
				return
			}
			if _, ok := q.Dequeue(); ok || !q.Empty() {
				done <- "drained queue not empty"
				return
			}
			done <- ""
		}()
		select {
		case msg := <-done:
			if msg != "" {
				t.Fatal(msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("capacity-1 queue hung")
		}
	})
}

// TestRingUnpublishedSlotHidesLater claims slot 0 without publishing it
// and publishes slot 1: the consumer must see an empty ring (the hole
// hides the later message) until slot 0 is published, and then both
// messages in FIFO order.
func TestRingUnpublishedSlotHidesLater(t *testing.T) {
	r, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	if !r.enq.CompareAndSwap(0, 1) {
		t.Fatal("claim of slot 0 failed")
	}
	if !r.Enqueue(core.Msg{Seq: 1}) {
		t.Fatal("enqueue into slot 1 failed")
	}
	if _, ok := r.Dequeue(); ok {
		t.Fatal("dequeue past an unpublished slot succeeded")
	}
	if !r.Empty() {
		t.Fatal("ring with an unpublished head slot not empty")
	}
	r.slots[0].msg = core.Msg{Seq: 0}
	r.slots[0].seq.Store(1)
	for want := int32(0); want < 2; want++ {
		m, ok := r.Dequeue()
		if !ok || m.Seq != want {
			t.Fatalf("dequeue: %+v, %v; want seq %d", m, ok, want)
		}
	}
	if !r.Empty() {
		t.Fatal("drained ring not empty")
	}
}

func TestTwoLockLen(t *testing.T) {
	q, err := NewTwoLock(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		q.Enqueue(core.Msg{})
	}
	if q.Len() != 5 {
		t.Fatalf("len = %d", q.Len())
	}
	q.Dequeue()
	if q.Len() != 4 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestLockFreeLenTracksApproximately(t *testing.T) {
	q, err := NewLockFree(8)
	if err != nil {
		t.Fatal(err)
	}
	q.Enqueue(core.Msg{})
	q.Enqueue(core.Msg{})
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
}
