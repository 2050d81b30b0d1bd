package simbind

import (
	"testing"

	"ulipc/internal/core"
	"ulipc/internal/machine"
	"ulipc/internal/sim"
	"ulipc/internal/sim/sched"
)

func newKernel(t *testing.T, m *machine.Model) *sim.Kernel {
	t.Helper()
	pol, err := sched.New(sched.PolicyDegrading)
	if err != nil {
		t.Fatal(err)
	}
	k, err := sim.New(sim.Config{Machine: m, Sched: pol})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestPortOpsChargeVirtualTime(t *testing.T) {
	m := machine.SGIIndy()
	k := newKernel(t, m)
	q := NewQueue(k, "q", 8)
	var enqT, deqT, tasT, storeT, emptyT sim.Time
	k.Spawn("w", 0, func(p *sim.Proc) {
		port := NewPort(p, q)
		t0 := p.Now()
		port.TryEnqueue(core.Msg{})
		enqT = p.Now() - t0

		t0 = p.Now()
		port.TryDequeue()
		deqT = p.Now() - t0

		t0 = p.Now()
		port.TASAwake()
		tasT = p.Now() - t0

		t0 = p.Now()
		port.SetAwake(false)
		storeT = p.Now() - t0

		t0 = p.Now()
		port.Empty()
		emptyT = p.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if enqT != m.EnqueueCost {
		t.Errorf("enqueue charged %d, want %d", enqT, m.EnqueueCost)
	}
	if deqT != m.DequeueCost {
		t.Errorf("dequeue charged %d, want %d", deqT, m.DequeueCost)
	}
	if tasT != m.TASCost || storeT != m.StoreCost || emptyT != m.EmptyCost {
		t.Errorf("flag costs: tas=%d store=%d empty=%d", tasT, storeT, emptyT)
	}
}

func TestQueueFIFOAndCapacity(t *testing.T) {
	k := newKernel(t, machine.SGIIndy())
	q := NewQueue(k, "q", 2)
	var results []int32
	var fullRejected bool
	k.Spawn("w", 0, func(p *sim.Proc) {
		port := NewPort(p, q)
		port.TryEnqueue(core.Msg{Seq: 1})
		port.TryEnqueue(core.Msg{Seq: 2})
		fullRejected = !port.TryEnqueue(core.Msg{Seq: 3})
		for {
			m, ok := port.TryDequeue()
			if !ok {
				break
			}
			results = append(results, m.Seq)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fullRejected {
		t.Fatal("enqueue beyond capacity succeeded")
	}
	if len(results) != 2 || results[0] != 1 || results[1] != 2 {
		t.Fatalf("results = %v", results)
	}
	if q.Enqueues != 2 || q.Dequeues != 2 {
		t.Fatalf("op counters: enq=%d deq=%d", q.Enqueues, q.Dequeues)
	}
}

func TestTASAwakeSemantics(t *testing.T) {
	k := newKernel(t, machine.SGIIndy())
	q := NewQueue(k, "q", 2)
	var first, second bool
	k.Spawn("w", 0, func(p *sim.Proc) {
		port := NewPort(p, q)
		port.SetAwake(false)
		first = port.TASAwake()
		second = port.TASAwake()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if first {
		t.Fatal("first TAS after clear must return false")
	}
	if !second {
		t.Fatal("second TAS must return true")
	}
}

// TestLockContentionSerialises verifies the two-lock model on a
// multiprocessor: two CPUs enqueueing simultaneously must serialise on
// the tail lock in virtual time.
func TestLockContentionSerialises(t *testing.T) {
	m := machine.SGIChallenge8()
	k := newKernel(t, m)
	q := NewQueue(k, "q", 64)
	var ends [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("w", 0, func(p *sim.Proc) {
			port := NewPort(p, q)
			port.TryEnqueue(core.Msg{})
			ends[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	d := ends[0] - ends[1]
	if d < 0 {
		d = -d
	}
	if d < m.LockHold {
		t.Fatalf("concurrent enqueues completed %dns apart; lock hold is %dns", d, m.LockHold)
	}
}

func TestActorBusyWaitFlavours(t *testing.T) {
	// Uniprocessor: busy_wait is a yield system call.
	k := newKernel(t, machine.SGIIndy())
	var yields int64
	k.Spawn("w", 0, func(p *sim.Proc) {
		a := NewActor(p)
		a.BusyWait()
		yields = p.M.Yields.Load()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if yields != 1 {
		t.Fatalf("uniprocessor busy_wait: yields = %d, want 1", yields)
	}

	// Multiprocessor: busy_wait is a timed spin, not a yield.
	mp := machine.SGIChallenge8()
	k2 := newKernel(t, mp)
	var mpYields int64
	var spun sim.Time
	k2.Spawn("w", 0, func(p *sim.Proc) {
		a := NewActor(p)
		t0 := p.Now()
		a.BusyWait()
		spun = p.Now() - t0
		mpYields = p.M.Yields.Load()
	})
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if mpYields != 0 {
		t.Fatalf("multiprocessor busy_wait yielded")
	}
	if spun != mp.SpinPollCost {
		t.Fatalf("spin = %d, want %d", spun, mp.SpinPollCost)
	}
}

func TestActorSemaphoreBridge(t *testing.T) {
	k := newKernel(t, machine.SGIIndy())
	q := NewQueue(k, "q", 2)
	var got core.Msg
	k.Spawn("consumer", 0, func(p *sim.Proc) {
		a := NewActor(p)
		port := NewPort(p, q)
		got = consumerRecv(port, a)
	})
	k.Spawn("producer", 0, func(p *sim.Proc) {
		a := NewActor(p)
		port := NewPort(p, q)
		p.Step(50 * sim.Microsecond)
		port.TryEnqueue(core.Msg{Val: 9})
		if !port.TASAwake() {
			a.V(port.Sem())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Val != 9 {
		t.Fatalf("got %+v", got)
	}
}

// consumerRecv is the BSW consumer-wait inlined (to avoid depending on
// core's unexported helper from another package).
func consumerRecv(q core.Port, a core.Actor) core.Msg {
	for {
		if m, ok := q.TryDequeue(); ok {
			return m
		}
		q.SetAwake(false)
		if m, ok := q.TryDequeue(); ok {
			if q.TASAwake() {
				a.P(q.Sem())
			}
			return m
		}
		a.P(q.Sem())
		q.SetAwake(true)
	}
}

func TestActorHandoffMapping(t *testing.T) {
	k := newKernel(t, machine.SGIIndy())
	order := []string{}
	var target *sim.Proc
	k.Spawn("a", 0, func(p *sim.Proc) {
		a := NewActor(p)
		order = append(order, "a1")
		a.Handoff(target.ID())
		order = append(order, "a2")
		a.Handoff(core.HandoffSelf)
		a.Handoff(core.HandoffAny)
	})
	target = k.Spawn("b", 0, func(p *sim.Proc) {
		order = append(order, "b")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a1" || order[1] != "b" || order[2] != "a2" {
		t.Fatalf("order = %v", order)
	}
}

func TestPoolPortWaiterAccounting(t *testing.T) {
	k := newKernel(t, machine.SGIIndy())
	q := NewQueue(k, "q", 8)
	var claims [3]bool
	k.Spawn("w", 0, func(p *sim.Proc) {
		pp := NewPoolPort(p, q)
		claims[0] = pp.ClaimWake() // no waiters
		pp.RegisterWaiter()
		pp.RegisterWaiter()
		claims[1] = pp.ClaimWake()
		if !pp.TryUnregisterWaiter() {
			t.Error("unregister failed with one waiter left")
		}
		claims[2] = pp.ClaimWake() // drained
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if claims[0] || !claims[1] || claims[2] {
		t.Fatalf("claims = %v, want [false true false]", claims)
	}
}

func TestPoolPortOpsChargeTime(t *testing.T) {
	m := machine.SGIIndy()
	k := newKernel(t, m)
	q := NewQueue(k, "q", 8)
	var regT sim.Time
	k.Spawn("w", 0, func(p *sim.Proc) {
		pp := NewPoolPort(p, q)
		t0 := p.Now()
		pp.RegisterWaiter()
		regT = p.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if regT != m.TASCost {
		t.Fatalf("register charged %d, want TAS cost %d", regT, m.TASCost)
	}
}
