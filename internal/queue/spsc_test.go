package queue

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"ulipc/internal/core"
)

func mustNewSPSC(t *testing.T, capacity int) *SPSC {
	t.Helper()
	q, err := NewSPSC(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestSPSCRejectedByGenericConstructor(t *testing.T) {
	if _, err := New(KindSPSC, 8); err == nil {
		t.Fatal("queue.New(KindSPSC) must fail: the generic constructor cannot prove the topology")
	}
}

func TestSPSCKindName(t *testing.T) {
	if got := KindSPSC.String(); got != "spsc" {
		t.Fatalf("KindSPSC.String() = %q, want spsc", got)
	}
	for _, name := range []string{"spsc", "lamport"} {
		k, err := KindByName(name)
		if err != nil || k != KindSPSC {
			t.Fatalf("KindByName(%q) = %v, %v; want KindSPSC", name, k, err)
		}
	}
	for _, k := range Kinds() {
		if k == KindSPSC {
			t.Fatal("Kinds() must list only the general-purpose (MPMC) kinds")
		}
	}
}

func TestSPSCFIFO(t *testing.T) {
	q := mustNewSPSC(t, 128)
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
}

func TestSPSCFullEmptyBoundary(t *testing.T) {
	q := mustNewSPSC(t, 3) // rounds up to 4
	if q.Cap() != 4 {
		t.Fatalf("Cap() = %d, want 4 (next power of two)", q.Cap())
	}
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("fresh ring not empty")
	}
	for i := 0; i < q.Cap(); i++ {
		if !q.Enqueue(core.Msg{Seq: int32(i)}) {
			t.Fatalf("enqueue %d failed before capacity", i)
		}
	}
	if q.Enqueue(core.Msg{}) {
		t.Fatal("enqueue on full ring succeeded")
	}
	if q.Len() != q.Cap() {
		t.Fatalf("Len() = %d, want %d", q.Len(), q.Cap())
	}
	// One dequeue must re-open exactly one slot, preserving order —
	// this crosses the cached-index refresh on both sides.
	m, ok := q.Dequeue()
	if !ok || m.Seq != 0 {
		t.Fatalf("dequeue after full: %+v, %v", m, ok)
	}
	if !q.Enqueue(core.Msg{Seq: 99}) {
		t.Fatal("enqueue after one dequeue failed")
	}
	if q.Enqueue(core.Msg{}) {
		t.Fatal("ring should be full again")
	}
	want := []int32{1, 2, 3, 99}
	for i, w := range want {
		m, ok := q.Dequeue()
		if !ok || m.Seq != w {
			t.Fatalf("drain %d: got %+v, %v, want Seq %d", i, m, ok, w)
		}
	}
	if !q.Empty() {
		t.Fatal("drained ring not empty")
	}
}

// TestSPSCStress drives one producer against one consumer through a
// small ring (constant wrap-around and boundary traffic) and checks
// FIFO order and zero loss. Run under -race this also certifies the
// publication protocol: the slot write must happen-before the tail
// store that publishes it.
func TestSPSCStress(t *testing.T) {
	const total = 200_000
	q := mustNewSPSC(t, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			for !q.Enqueue(core.Msg{Seq: int32(i % 1024), Val: float64(i)}) {
				runtime.Gosched()
			}
		}
	}()
	for i := 0; i < total; i++ {
		var m core.Msg
		var ok bool
		for {
			if m, ok = q.Dequeue(); ok {
				break
			}
			runtime.Gosched()
		}
		if m.Val != float64(i) || m.Seq != int32(i%1024) {
			t.Fatalf("out of order at %d: %+v", i, m)
		}
	}
	wg.Wait()
	if !q.Empty() {
		t.Fatal("ring not empty after drain")
	}
}

// TestSPSCBurstWrap moves bursts of every size from 1 to 8 through a
// capacity-8 ring for 1000 rounds, enqueueing and dequeueing in bursts
// of different sizes so the ring holds a shifting residue: the copies
// split across the wrap point at every offset, and FIFO order and the
// moved counts must hold throughout.
func TestSPSCBurstWrap(t *testing.T) {
	q := mustNewSPSC(t, 8)
	var in, out [8]core.Msg
	var sent, recv int32
	for r := 0; r < 1000; r++ {
		k := r%8 + 1
		for i := 0; i < k; i++ {
			in[i] = core.Msg{Seq: sent + int32(i)}
		}
		n := q.EnqueueN(in[:k])
		if want := min(k, 8-int(sent-recv)); n != want {
			t.Fatalf("round %d: EnqueueN(%d) = %d with %d queued, want %d", r, k, n, sent-recv, want)
		}
		sent += int32(n)
		j := (r*5)%8 + 1
		got := q.DequeueN(out[:j])
		if want := min(j, int(sent-recv)); got != want {
			t.Fatalf("round %d: DequeueN(%d) = %d with %d queued, want %d", r, j, got, sent-recv, want)
		}
		for i := 0; i < got; i++ {
			if out[i].Seq != recv+int32(i) {
				t.Fatalf("round %d: out of order: slot %d holds seq %d, want %d", r, i, out[i].Seq, recv+int32(i))
			}
		}
		recv += int32(got)
		if q.Len() != int(sent-recv) {
			t.Fatalf("round %d: Len = %d, want %d", r, q.Len(), sent-recv)
		}
	}
}

// TestSPSCBurstPartial checks the burst forms at the boundaries: an
// empty ring gives nothing, a full one takes nothing, a burst larger
// than the room moves exactly the prefix that fits, and a zero-length
// burst is a no-op on either side.
func TestSPSCBurstPartial(t *testing.T) {
	q := mustNewSPSC(t, 4)
	in := make([]core.Msg, 6)
	for i := range in {
		in[i].Seq = int32(i)
	}
	out := make([]core.Msg, 6)
	if n := q.DequeueN(out); n != 0 {
		t.Fatalf("DequeueN on an empty ring = %d", n)
	}
	if n := q.EnqueueN(nil); n != 0 || !q.Empty() {
		t.Fatalf("EnqueueN(nil) = %d, Empty = %v", n, q.Empty())
	}
	if n := q.EnqueueN(in); n != 4 {
		t.Fatalf("EnqueueN(6) into 4 free slots = %d, want 4", n)
	}
	if n := q.EnqueueN(in[4:]); n != 0 {
		t.Fatalf("EnqueueN into a full ring = %d", n)
	}
	if n := q.DequeueN(out[:0]); n != 0 || q.Len() != 4 {
		t.Fatalf("DequeueN of length 0 = %d, Len = %d", n, q.Len())
	}
	if n := q.DequeueN(out[:1]); n != 1 || out[0].Seq != 0 {
		t.Fatalf("DequeueN(1) = %d, seq %d", n, out[0].Seq)
	}
	if n := q.EnqueueN(in[4:]); n != 1 {
		t.Fatalf("EnqueueN(2) with 1 free slot = %d, want 1", n)
	}
	n := q.DequeueN(out)
	if n != 4 {
		t.Fatalf("DequeueN(6) of 4 queued = %d", n)
	}
	for i, want := range []int32{1, 2, 3, 4} {
		if out[i].Seq != want {
			t.Fatalf("drain slot %d: seq %d, want %d", i, out[i].Seq, want)
		}
	}
	if !q.Empty() {
		t.Fatal("drained ring not empty")
	}
}

// TestSPSCBurstStress is TestSPSCStress with random burst sizes (zero
// included) on both sides, so every enqueue/dequeue split and the
// partial-burst paths race the peer; run under -race it certifies that
// the one publishing store per burst orders every slot it covers.
func TestSPSCBurstStress(t *testing.T) {
	const total, maxBurst = 100_000, 20
	q := mustNewSPSC(t, 16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		var buf [maxBurst]core.Msg
		for sent := 0; sent < total; {
			k := min(rng.Intn(maxBurst+1), total-sent)
			for i := 0; i < k; i++ {
				buf[i] = core.Msg{Seq: int32(sent + i), Val: float64(sent + i)}
			}
			n := q.EnqueueN(buf[:k])
			sent += n
			if n < k || k == 0 {
				runtime.Gosched()
			}
		}
	}()
	rng := rand.New(rand.NewSource(2))
	var buf [maxBurst]core.Msg
	for recv := 0; recv < total; {
		n := q.DequeueN(buf[:rng.Intn(maxBurst+1)])
		for i := 0; i < n; i++ {
			if buf[i].Seq != int32(recv) || buf[i].Val != float64(recv) {
				t.Fatalf("out of order at %d: %+v", recv, buf[i])
			}
			recv++
		}
		if n == 0 {
			runtime.Gosched()
		}
	}
	wg.Wait()
	if !q.Empty() {
		t.Fatal("ring not empty after drain")
	}
}

// TestSPSCEmptyConcurrentPoll checks that Empty/Len may be polled from
// a third goroutine while the producer and consumer run — the BSLS spin
// loop does exactly this on reply rings. Under -race this verifies the
// poll touches only the atomic indices.
func TestSPSCEmptyConcurrentPoll(t *testing.T) {
	const total = 50_000
	q := mustNewSPSC(t, 16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = q.Empty()
			if n := q.Len(); n < 0 || n > q.Cap() {
				panic("Len out of range")
			}
			runtime.Gosched() // keep the poll cooperative on GOMAXPROCS=1
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			for !q.Enqueue(core.Msg{Val: float64(i)}) {
				runtime.Gosched()
			}
		}
	}()
	for i := 0; i < total; i++ {
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
}
