package livebind

import (
	"fmt"
	"strings"
	"testing"

	"ulipc/internal/queue"
)

// Topology enforcement for the SPSC reply fast path: KindSPSC must be
// impossible to obtain anywhere the single-producer/single-consumer
// property is not provable, and System must refuse any handle
// acquisition that would attach a second producer to an SPSC ring.

func TestNewChannelRejectsSPSC(t *testing.T) {
	if _, err := NewChannel(queue.KindSPSC, 8); err == nil {
		t.Fatal("NewChannel(KindSPSC) must fail: a bare channel's topology is unprovable")
	}
}

func TestNewSystemRejectsSPSCQueueKind(t *testing.T) {
	_, err := NewSystem(Options{Clients: 2, QueueKind: queue.KindSPSC})
	if err == nil {
		t.Fatal("NewSystem must reject QueueKind=KindSPSC: the receive queue is multi-producer")
	}
}

func TestDefaultReplyKindIsSPSC(t *testing.T) {
	sys, err := NewSystem(Options{Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if k := sys.ReplyChannel(i).Kind(); k != queue.KindSPSC {
			t.Fatalf("reply channel %d kind = %v, want SPSC default", i, k)
		}
	}
	if k := sys.ReceiveChannel().Kind(); k == queue.KindSPSC {
		t.Fatal("receive channel must never be SPSC")
	}
	// MPMCReplies builds the reply channels as QueueKind queues.
	for _, kind := range []queue.Kind{queue.KindRing, queue.KindTwoLock} {
		sys2, err := NewSystem(Options{Clients: 1, QueueKind: kind, MPMCReplies: true})
		if err != nil {
			t.Fatal(err)
		}
		if k := sys2.ReplyChannel(0).Kind(); k != kind {
			t.Fatalf("MPMCReplies over %v: reply channel kind %v", kind, k)
		}
	}
}

func TestServerDoubleTakePanicsUnderSPSC(t *testing.T) {
	sys, err := NewSystem(Options{Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.Server()
	defer func() {
		if recover() == nil {
			t.Fatal("second Server() must panic with SPSC reply channels")
		}
	}()
	sys.Server()
}

func TestServerDoubleTakeAllowedWithMPMCReplies(t *testing.T) {
	sys, err := NewSystem(Options{Clients: 1, MPMCReplies: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.Server()
	sys.Server() // no panic: ring replies tolerate several producers
}

func TestDuplexPairSPSCConflicts(t *testing.T) {
	sys, err := NewSystem(Options{Clients: 2, Duplex: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.DuplexPair(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.DuplexPair(0); err == nil {
		t.Fatal("second DuplexPair(0) must fail: the reply ring already has a producer")
	}
	if _, _, err := sys.DuplexPair(1); err != nil {
		t.Fatalf("DuplexPair(1) is a distinct ring and must succeed: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Server() after DuplexPair must panic with SPSC replies")
		}
	}()
	sys.Server()
}

func TestDuplexPairAfterServerErrors(t *testing.T) {
	sys, err := NewSystem(Options{Clients: 1, Duplex: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.Server()
	if _, _, err := sys.DuplexPair(0); err == nil {
		t.Fatal("DuplexPair after Server must fail: Server produces into every reply ring")
	}
}

func TestWorkerPoolRebuildsAutoSPSCReplies(t *testing.T) {
	sys, err := NewSystem(Options{Clients: 2, QueueKind: queue.KindRing})
	if err != nil {
		t.Fatal(err)
	}
	workers, err := sys.WorkerPool(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(workers) != 2 {
		t.Fatalf("got %d workers, want 2", len(workers))
	}
	for i := 0; i < 2; i++ {
		if k := sys.ReplyChannel(i).Kind(); k != queue.KindRing {
			t.Fatalf("reply channel %d kind = %v after WorkerPool, want the system's QueueKind (ring)", i, k)
		}
	}
	if _, err := sys.PoolClient(0); err != nil {
		t.Fatalf("PoolClient after WorkerPool: %v", err)
	}
}

// TestDefaultReceiveQueueIsRing pins the default topology: a zero
// QueueKind builds the shared receive queue as the MPMC ring, and a
// worker pool's MPMC reply fallback is the ring too. An explicit
// KindTwoLock is still honoured on both.
func TestDefaultReceiveQueueIsRing(t *testing.T) {
	for _, c := range []struct {
		name string
		kind queue.Kind
		want queue.Kind
	}{
		{"default", 0, queue.KindRing},
		{"explicit-two-lock", queue.KindTwoLock, queue.KindTwoLock},
	} {
		t.Run(c.name, func(t *testing.T) {
			check := func(what string, ch *Channel) {
				t.Helper()
				_, ring := ch.Queue().(*queue.Ring)
				_, twoLock := ch.Queue().(*queue.TwoLock)
				if ch.Kind() != c.want || ring != (c.want == queue.KindRing) || twoLock != (c.want == queue.KindTwoLock) {
					t.Fatalf("%s is %v (%T), want %v", what, ch.Kind(), ch.Queue(), c.want)
				}
			}
			sys, err := NewSystem(Options{Clients: 2, QueueKind: c.kind})
			if err != nil {
				t.Fatal(err)
			}
			check("receive channel", sys.ReceiveChannel())

			pool, err := NewSystem(Options{Clients: 2, QueueKind: c.kind})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pool.WorkerPool(2); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				check(fmt.Sprintf("pool reply channel %d", i), pool.ReplyChannel(i))
			}
		})
	}
}

func TestWorkerPoolAfterHandleErrors(t *testing.T) {
	sys, err := NewSystem(Options{Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Client(0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.WorkerPool(2); err == nil {
		t.Fatal("WorkerPool after a handle was issued must fail: it rebuilds the reply queues")
	}
}

func TestPoolClientBeforeWorkerPoolErrors(t *testing.T) {
	sys, err := NewSystem(Options{Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.PoolClient(0)
	if err == nil || !strings.Contains(err.Error(), "WorkerPool") {
		t.Fatalf("PoolClient before WorkerPool: got %v, want an error pointing at WorkerPool", err)
	}
}
