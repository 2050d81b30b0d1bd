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

// A port over an SPSC ring moves bursts with the ring's vectored
// EnqueueN/DequeueN: a burst larger than the free space takes exactly
// the free space, FIFO, across the wrap, and the batch dequeue drains
// it in order. The scalar topology's default reply ports take this
// path on both ends.
func TestPortSPSCBatch(t *testing.T) {
	c, err := newSPSCChannel(4)
	if err != nil {
		t.Fatal(err)
	}
	prod, cons := NewPort(c), NewPort(c)
	if prod.ring == nil || cons.ring == nil {
		t.Fatal("port over an SPSC channel did not resolve the ring")
	}
	if !prod.TryEnqueue(core.Msg{Seq: 0}) {
		t.Fatal("enqueue failed")
	}
	if m, ok := cons.TryDequeue(); !ok || m.Seq != 0 {
		t.Fatalf("dequeue: %+v %v", m, ok)
	}
	if !prod.TryEnqueue(core.Msg{Seq: 1}) { // the burst below wraps
		t.Fatal("enqueue failed")
	}
	burst := make([]core.Msg, 6)
	for i := range burst {
		burst[i] = core.Msg{Seq: int32(i + 2)}
	}
	if n := prod.TryEnqueueBatch(burst); n != 3 {
		t.Fatalf("burst of 6 into 3 free slots took %d", n)
	}
	if n := prod.TryEnqueueBatch(burst[3:]); n != 0 {
		t.Fatalf("burst into a full ring took %d", n)
	}
	dst := make([]core.Msg, 8)
	n := cons.TryDequeueBatch(dst)
	if n != 4 {
		t.Fatalf("drained %d, want 4", n)
	}
	for i, m := range dst[:n] {
		if m.Seq != int32(i+1) {
			t.Fatalf("slot %d holds seq %d, want %d", i, m.Seq, i+1)
		}
	}
	if n := cons.TryDequeueBatch(dst); n != 0 || !cons.Empty() {
		t.Fatalf("drained ring gave %d more", n)
	}

	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown(context.Background())
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := cl.Rcv.(*Port); !ok || p.ring == nil {
		t.Fatalf("client reply port %T is not a vectored ring port", cl.Rcv)
	}
	rp := sys.Server().Replies[0]
	if p, ok := rp.(*Port); !ok || p.ring == nil {
		t.Fatalf("server reply port %T is not a vectored ring port", rp)
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
