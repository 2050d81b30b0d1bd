package queue

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"ulipc/internal/core"
)

func mkLanes(t *testing.T, n, capacity int) *Lanes {
	t.Helper()
	lanes := make([]*SPSC, n)
	for i := range lanes {
		q, err := NewSPSC(capacity)
		if err != nil {
			t.Fatal(err)
		}
		lanes[i] = q
	}
	l, err := NewLanes(lanes)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLanesFanIn enqueues through per-producer lanes and dequeues
// through the fan-in view: every message must come out exactly once,
// and the shared Enqueue must refuse (producers own their lanes).
func TestLanesFanIn(t *testing.T) {
	const lanes, per = 3, 10
	l := mkLanes(t, lanes, 16)
	if l.Enqueue(core.Msg{}) {
		t.Fatal("fan-in Enqueue accepted a message; producers must use Lane(i)")
	}
	for i := 0; i < lanes; i++ {
		for j := 0; j < per; j++ {
			if !l.Lane(i).Enqueue(core.Msg{Seq: int32(j), MsgMeta: core.MsgMeta{Client: int32(i)}}) {
				t.Fatalf("lane %d refused message %d", i, j)
			}
		}
	}
	if l.Len() != lanes*per {
		t.Fatalf("Len = %d, want %d", l.Len(), lanes*per)
	}
	seen := make(map[[2]int32]bool)
	for k := 0; k < lanes*per; k++ {
		m, ok := l.Dequeue()
		if !ok {
			t.Fatalf("Dequeue %d failed with %d messages left", k, lanes*per-k)
		}
		key := [2]int32{m.Client, m.Seq}
		if seen[key] {
			t.Fatalf("message %v dequeued twice", key)
		}
		seen[key] = true
	}
	if _, ok := l.Dequeue(); ok {
		t.Fatal("Dequeue succeeded on empty lanes")
	}
	if !l.Empty() {
		t.Fatal("Empty = false after full drain")
	}
}

// TestLanesRoundRobin checks the consumer does not starve a lane: with
// every lane non-empty, consecutive dequeues must rotate through all of
// them rather than draining one to exhaustion.
func TestLanesRoundRobin(t *testing.T) {
	const lanes = 4
	l := mkLanes(t, lanes, 8)
	for i := 0; i < lanes; i++ {
		for j := 0; j < 2; j++ {
			l.Lane(i).Enqueue(core.Msg{MsgMeta: core.MsgMeta{Client: int32(i)}})
		}
	}
	var order []int32
	for k := 0; k < lanes; k++ {
		m, ok := l.Dequeue()
		if !ok {
			t.Fatal("unexpected empty")
		}
		order = append(order, m.Client)
	}
	seen := make(map[int32]bool)
	for _, c := range order {
		if seen[c] {
			t.Fatalf("lane %d served twice in one rotation (order %v): a non-empty lane was starved", c, order)
		}
		seen[c] = true
	}
}

// TestLanesDequeueNFIFO drains three lanes with bursts of every size
// from 1 to 7: every message comes out exactly once, and each lane's
// messages in the order they were enqueued, however the bursts split
// them.
func TestLanesDequeueNFIFO(t *testing.T) {
	const lanes, per = 3, 10
	l := mkLanes(t, lanes, 16)
	for i := 0; i < lanes; i++ {
		for j := 0; j < per; j++ {
			l.Lane(i).Enqueue(core.Msg{Seq: int32(j), MsgMeta: core.MsgMeta{Client: int32(i)}})
		}
	}
	next := make([]int32, lanes)
	buf := make([]core.Msg, 7)
	total := 0
	for k := 0; total < lanes*per; k++ {
		n := l.DequeueN(buf[:k%7+1])
		if n == 0 {
			t.Fatalf("DequeueN came up empty with %d messages left", lanes*per-total)
		}
		for _, m := range buf[:n] {
			if m.Seq != next[m.Client] {
				t.Fatalf("lane %d out of order: seq %d, want %d", m.Client, m.Seq, next[m.Client])
			}
			next[m.Client]++
		}
		total += n
	}
	if n := l.DequeueN(buf); n != 0 || !l.Empty() {
		t.Fatalf("DequeueN on drained lanes = %d, Empty = %v", n, l.Empty())
	}
	if n := l.DequeueN(nil); n != 0 {
		t.Fatalf("DequeueN(nil) = %d", n)
	}
}

// TestLanesDequeueNRoundRobin is TestLanesRoundRobin per burst: with
// every lane non-empty and bursts no larger than a lane's depth, n
// successive bursts must serve all n lanes — the cursor moves past the
// lane each burst ended on, so no lane is served twice before every
// other has been served once.
func TestLanesDequeueNRoundRobin(t *testing.T) {
	const lanes, depth = 4, 3
	for burst := 1; burst <= depth; burst++ {
		l := mkLanes(t, lanes, 8)
		for i := 0; i < lanes; i++ {
			for j := 0; j < depth; j++ {
				l.Lane(i).Enqueue(core.Msg{MsgMeta: core.MsgMeta{Client: int32(i)}})
			}
		}
		buf := make([]core.Msg, burst)
		seen := make(map[int32]bool)
		for k := 0; k < lanes; k++ {
			if n := l.DequeueN(buf); n != burst {
				t.Fatalf("burst %d: DequeueN = %d", burst, n)
			}
			c := buf[0].Client
			for _, m := range buf {
				if m.Client != c {
					t.Fatalf("burst %d: one burst spans lanes %d and %d although lane %d held enough", burst, c, m.Client, c)
				}
			}
			if seen[c] {
				t.Fatalf("burst %d: lane %d served twice in one rotation: a non-empty lane was starved", burst, c)
			}
			seen[c] = true
		}
	}
}

// TestLanesDequeueNWrap drives DequeueN over 3 and 5 lanes of uneven
// depth with bursts of 1 to 4: each lane's messages come out in FIFO
// order, a lane holding messages when a burst starts is served within n
// bursts, and the cursor always rests just past the last lane a burst
// served — wrapping from the last lane to lane 0.
func TestLanesDequeueNWrap(t *testing.T) {
	for _, lanes := range []int{3, 5} {
		for burst := 1; burst <= 4; burst++ {
			l := mkLanes(t, lanes, 16)
			for i := 0; i < lanes; i++ {
				for j := 0; j < 2+2*i; j++ {
					l.Lane(i).Enqueue(core.Msg{Seq: int32(j), MsgMeta: core.MsgMeta{Client: int32(i)}})
				}
			}
			next := make([]int32, lanes)
			waited := make([]int, lanes) // bursts a non-empty lane went unserved
			buf := make([]core.Msg, burst)
			wrapped := false
			for !l.Empty() {
				held := make([]bool, lanes)
				for i := range held {
					held[i] = !l.Lane(i).Empty()
				}
				n := l.DequeueN(buf)
				if n == 0 {
					t.Fatalf("%d lanes, burst %d: DequeueN came up empty", lanes, burst)
				}
				served := make([]bool, lanes)
				for _, m := range buf[:n] {
					if m.Seq != next[m.Client] {
						t.Fatalf("%d lanes, burst %d: lane %d out of order: seq %d, want %d", lanes, burst, m.Client, m.Seq, next[m.Client])
					}
					next[m.Client]++
					served[m.Client] = true
				}
				last := int(buf[n-1].Client)
				if got, want := l.next.Load(), uint32((last+1)%lanes); got != want {
					t.Fatalf("%d lanes, burst %d: cursor %d after serving lane %d, want %d", lanes, burst, got, last, want)
				}
				wrapped = wrapped || last == lanes-1
				for i := range waited {
					if !held[i] || served[i] {
						waited[i] = 0
					} else if waited[i]++; waited[i] >= lanes {
						t.Fatalf("%d lanes, burst %d: lane %d unserved for %d bursts", lanes, burst, i, waited[i])
					}
				}
			}
			if !wrapped {
				t.Errorf("%d lanes, burst %d: no burst ended on the last lane, the wrap went untested", lanes, burst)
			}
		}
	}
}

// TestLanesConcurrent runs producers on their own lanes and two
// consumers on the fan-in, the owner and a drainer (a shutdown or
// recovery drain runs while the owner may still be live) — the -race
// check that the per-lane consumer locks actually serialise the
// consumer-local ring state between them.
func TestLanesConcurrent(t *testing.T) {
	runLanesTwoConsumers(t, func(l *Lanes, buf []core.Msg, _ *rand.Rand) int {
		m, ok := l.Dequeue()
		if !ok {
			return 0
		}
		buf[0] = m
		return 1
	})
}

// TestLanesDequeueNConcurrentSteal is TestLanesConcurrent with both
// consumers taking random-sized bursts, each stealing whole lane bursts
// from under the other: two bursts on the same lane must serialise on
// the lane lock, so every message is delivered exactly once.
func TestLanesDequeueNConcurrentSteal(t *testing.T) {
	runLanesTwoConsumers(t, func(l *Lanes, buf []core.Msg, rng *rand.Rand) int {
		return l.DequeueN(buf[:1+rng.Intn(len(buf))])
	})
}

// runLanesTwoConsumers drives four producers and two consumers, each
// taking messages with take (into a buffer of 16, with a generator of
// its own), and checks every message arrives exactly once.
func runLanesTwoConsumers(t *testing.T, take func(l *Lanes, buf []core.Msg, rng *rand.Rand) int) {
	const lanes, per = 4, 2000
	l := mkLanes(t, lanes, 64)
	total := lanes * per

	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				for !l.Lane(i).Enqueue(core.Msg{Seq: int32(j), MsgMeta: core.MsgMeta{Client: int32(i)}}) {
				}
			}
		}(i)
	}

	results := make(chan core.Msg, total)
	done := make(chan struct{})
	var cg sync.WaitGroup
	for c := int64(0); c < 2; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			buf := make([]core.Msg, 16)
			rng := rand.New(rand.NewSource(c))
			for {
				if n := take(l, buf, rng); n > 0 {
					for _, m := range buf[:n] {
						results <- m
					}
					continue
				}
				select {
				case <-done:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}

	wg.Wait()
	seen := make(map[[2]int32]bool, total)
	for k := 0; k < total; k++ {
		m := <-results
		key := [2]int32{m.Client, m.Seq}
		if seen[key] {
			t.Fatalf("message %v delivered twice", key)
		}
		seen[key] = true
	}
	close(done)
	cg.Wait()
	if !l.Empty() {
		t.Fatal("lanes not empty after all messages consumed")
	}
	select {
	case m := <-results:
		t.Fatalf("extra message %v fabricated", m)
	default:
	}
}
