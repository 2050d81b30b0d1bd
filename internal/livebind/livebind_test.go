package livebind

import (
	"context"
	"sync"
	"testing"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/queue"
)

func TestSemaphorePendingV(t *testing.T) {
	s := NewSemaphore(0)
	s.V() // V before P must remain pending (counting semantics)
	done := make(chan struct{})
	go func() {
		s.P()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("P blocked despite a pending V")
	}
	if s.Count() != 0 {
		t.Fatalf("count = %d", s.Count())
	}
}

func TestSemaphoreBlocksUntilV(t *testing.T) {
	s := NewSemaphore(0)
	released := make(chan struct{})
	go func() {
		s.P()
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("P returned without a V")
	case <-time.After(20 * time.Millisecond):
	}
	s.V()
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("V did not release the waiter")
	}
}

func TestSemaphoreCountingUnderConcurrency(t *testing.T) {
	s := NewSemaphore(0)
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.P()
		}()
	}
	for i := 0; i < n; i++ {
		s.V()
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("waiters not all released")
	}
	if s.Count() != 0 {
		t.Fatalf("count = %d", s.Count())
	}
}

func TestChannelAwakeTAS(t *testing.T) {
	c, err := NewChannel(queue.KindTwoLock, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPort(c)
	if !p.TASAwake() {
		t.Fatal("initial awake must be true")
	}
	p.SetAwake(false)
	if p.TASAwake() {
		t.Fatal("TAS after clear must return false")
	}
	if !p.TASAwake() {
		t.Fatal("second TAS must return true")
	}
}

func TestPortQueueOps(t *testing.T) {
	c, err := NewChannel(queue.KindRing, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPort(c)
	if !p.Empty() {
		t.Fatal("fresh channel not empty")
	}
	if !p.TryEnqueue(core.Msg{Seq: 1}) {
		t.Fatal("enqueue failed")
	}
	if p.Empty() {
		t.Fatal("queue with message reports empty")
	}
	m, ok := p.TryDequeue()
	if !ok || m.Seq != 1 {
		t.Fatalf("dequeue: %+v %v", m, ok)
	}
}

func TestSystemValidation(t *testing.T) {
	if _, err := NewSystem(Options{Clients: 0}); err == nil {
		t.Error("zero clients accepted")
	}
	sys, err := NewSystem(Options{Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Client(-1); err == nil {
		t.Error("negative client index accepted")
	}
	if _, err := sys.Client(2); err == nil {
		t.Error("out-of-range client index accepted")
	}
	if _, err := sys.Client(1); err != nil {
		t.Errorf("valid client index rejected: %v", err)
	}
}

// TestSemaphoreBounded verifies the Figure 4 claim end-to-end on the
// live runtime: with the TAS fixes in place, no reply semaphore
// accumulates pending wake-ups across a multi-client run.
func TestSemaphoreBounded(t *testing.T) {
	const clients = 4
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	done := make(chan struct{})
	go func() { srv.Serve(nil); close(done) }()

	// All clients must be connected before any disconnects, or Serve
	// (which exits when the connected count returns to zero) can end
	// early — the same reason the paper's methodology barriers after
	// connecting.
	var barrier sync.WaitGroup
	barrier.Add(clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cl, err := sys.Client(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cl *core.Client) {
			defer wg.Done()
			cl.Send(core.Msg{Op: core.OpConnect})
			barrier.Done()
			barrier.Wait()
			for j := 0; j < 500; j++ {
				cl.Send(core.Msg{Op: core.OpEcho, Seq: int32(j)})
			}
			cl.Send(core.Msg{Op: core.OpDisconnect})
		}(cl)
	}
	wg.Wait()
	<-done

	if c := sys.ReceiveChannel().SemCount(); c > 1 {
		t.Errorf("server semaphore accumulated: %d", c)
	}
	for i := 0; i < clients; i++ {
		if c := sys.ReplyChannel(i).SemCount(); c > 1 {
			t.Errorf("client %d semaphore accumulated: %d", i, c)
		}
	}
}

func TestActorSleepScale(t *testing.T) {
	a := &Actor{SleepScale: time.Microsecond}
	start := time.Now()
	if err := a.SleepCtx(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("scaled sleep took %v", d)
	}
}

func TestActorSpinFlavour(t *testing.T) {
	a := &Actor{SpinIters: 100}
	a.BusyWait() // must not yield/panic; just burn cycles
	a.PollDelay()
	if a.spinSink == 0 {
		t.Fatal("spin did not run")
	}
}

func TestActorHandoffDegradesToYield(t *testing.T) {
	a := &Actor{}
	a.Handoff(5) // must not panic; degrades to Gosched
}

func TestSystemMetricsNames(t *testing.T) {
	sys, err := NewSystem(Options{Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.Server()
	if _, err := sys.Client(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.Metrics().Find("server"); !ok {
		t.Error("server metrics missing")
	}
	if _, ok := sys.Metrics().Find("client0"); !ok {
		t.Error("client0 metrics missing")
	}
}
