package core

import (
	"context"
	"testing"

	"ulipc/internal/metrics"
	"ulipc/internal/obs"
)

// fakePort is a deterministic in-memory Port for white-box protocol
// tests.
type fakePort struct {
	msgs     []Msg
	capacity int
	awake    bool
	sem      SemID

	enqAttempts int
	deqAttempts int
	tasCalls    int
}

func newFakePort(sem SemID, capacity int) *fakePort {
	return &fakePort{capacity: capacity, awake: true, sem: sem}
}

func (p *fakePort) TryEnqueue(m Msg) bool {
	p.enqAttempts++
	if len(p.msgs) >= p.capacity {
		return false
	}
	p.msgs = append(p.msgs, m)
	return true
}

func (p *fakePort) TryDequeue() (Msg, bool) {
	p.deqAttempts++
	if len(p.msgs) == 0 {
		return Msg{}, false
	}
	m := p.msgs[0]
	p.msgs = p.msgs[1:]
	return m, true
}

func (p *fakePort) TryEnqueueBatch(ms []Msg) int { return EnqueueEach(p, ms) }

func (p *fakePort) TryDequeueBatch(dst []Msg) int { return DequeueEach(p, dst) }

func (p *fakePort) Empty() bool { return len(p.msgs) == 0 }

func (p *fakePort) SetAwake(v bool) { p.awake = v }

func (p *fakePort) TASAwake() bool {
	p.tasCalls++
	old := p.awake
	p.awake = true
	return old
}

func (p *fakePort) ClaimWake() bool { return !p.TASAwake() }

func (p *fakePort) Sem() SemID { return p.sem }

func (p *fakePort) Depth() int     { return 0 }
func (p *fakePort) Refusing() bool { return false }
func (p *fakePort) Closed() bool   { return false }
func (p *fakePort) PeerDead() bool { return false }

// fakeActor is a deterministic Actor: semaphores are plain counters and
// the onP hook lets a test inject work when the protocol would block.
type fakeActor struct {
	sems      []int
	yields    int
	busyWaits int
	polls     int
	sleeps    int
	handoffs  []int
	vs        []SemID // plain V calls, in order
	grants    []SemID // Grant calls, in order; a grant also counts up

	onP       func(SemID) // called when P would block (count == 0)
	onYield   func()
	onBusy    func()
	blockedAt int
}

func newFakeActor(nsems int) *fakeActor { return &fakeActor{sems: make([]int, nsems)} }

func (a *fakeActor) Yield() {
	a.yields++
	if a.onYield != nil {
		a.onYield()
	}
}

func (a *fakeActor) BusyWait() {
	a.busyWaits++
	if a.onBusy != nil {
		a.onBusy()
	}
}

func (a *fakeActor) PollDelay() {
	a.polls++
	if a.onBusy != nil {
		a.onBusy()
	}
}

func (a *fakeActor) SleepCtx(context.Context, int) error { a.sleeps++; return nil }

func (a *fakeActor) P(id SemID) {
	if a.sems[id] == 0 {
		a.blockedAt++
		if a.onP == nil {
			panic("fakeActor: P would block and no onP hook is set")
		}
		a.onP(id)
	}
	if a.sems[id] == 0 {
		panic("fakeActor: onP hook did not make the P succeed")
	}
	a.sems[id]--
}

func (a *fakeActor) PCtx(_ context.Context, id SemID) error { a.P(id); return nil }

func (a *fakeActor) V(id SemID) { a.vs = append(a.vs, id); a.sems[id]++ }

func (a *fakeActor) Grant(id SemID) { a.grants = append(a.grants, id); a.sems[id]++ }

func (a *fakeActor) Handoff(target int) { a.handoffs = append(a.handoffs, target) }

var (
	_ Port  = (*fakePort)(nil)
	_ Actor = (*fakeActor)(nil)
)

// mustWait runs the BSW receive leg (the bare consumer wait) under a
// context that never ends.
func mustWait(t *testing.T, q Port, a Actor) Msg {
	t.Helper()
	m, err := receiveLeg(context.Background(), BSW, 0, nil, q, a, nil, obs.Hook{}, legHint{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEnqueueOrSleepRetriesOnFull(t *testing.T) {
	q := newFakePort(0, 1)
	a := newFakeActor(1)
	q.TryEnqueue(Msg{}) // fill
	go func() {}()
	// Drain the queue from the sleep hook so the retry succeeds.
	drained := false
	origSleep := a.sleeps
	aSleep := func() {
		if !drained {
			q.msgs = q.msgs[:0]
			drained = true
		}
	}
	// fakeActor has no sleep hook; emulate by wrapping.
	wrapped := &sleepHookActor{fakeActor: a, hook: aSleep}
	if err := enqueueCtx(context.Background(), BSW, q, wrapped, Msg{Val: 7}, nil, nil, obs.Hook{}); err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatal("expected a queue-full sleep before success")
	}
	if a.sleeps != origSleep+1 {
		t.Fatalf("sleeps = %d", a.sleeps)
	}
	if len(q.msgs) != 1 || q.msgs[0].Val != 7 {
		t.Fatalf("queue = %+v", q.msgs)
	}
}

type sleepHookActor struct {
	*fakeActor
	hook func()
}

func (a *sleepHookActor) SleepCtx(ctx context.Context, s int) error {
	a.hook()
	return a.fakeActor.SleepCtx(ctx, s)
}

func TestWakeConsumerOnlyWhenFlagClear(t *testing.T) {
	q := newFakePort(0, 4)
	a := newFakeActor(1)

	q.awake = true
	if wake(q, a) {
		t.Fatal("must not V an awake consumer")
	}
	if a.sems[0] != 0 {
		t.Fatalf("sem = %d", a.sems[0])
	}

	q.awake = false
	if !wake(q, a) {
		t.Fatal("must V a sleeping consumer")
	}
	if a.sems[0] != 1 {
		t.Fatalf("sem = %d", a.sems[0])
	}
	if !q.awake {
		t.Fatal("TAS must set the flag")
	}

	// A second producer now sees the flag set: no V.
	if wake(q, a) {
		t.Fatal("second producer must not V (Interleaving 2 fix)")
	}
	if a.sems[0] != 1 {
		t.Fatalf("sem = %d after redundant wake attempt", a.sems[0])
	}
}

func TestConsumerWaitImmediateSuccess(t *testing.T) {
	q := newFakePort(0, 4)
	a := newFakeActor(1)
	q.TryEnqueue(Msg{Val: 1})
	m := mustWait(t, q, a)
	if m.Val != 1 {
		t.Fatalf("got %+v", m)
	}
	if !q.awake {
		t.Fatal("flag must remain set on the fast path")
	}
	if a.blockedAt != 0 {
		t.Fatal("fast path must not block")
	}
}

func TestConsumerWaitBlocksThenWakes(t *testing.T) {
	q := newFakePort(0, 4)
	a := newFakeActor(1)
	// The producer "runs" while we are blocked: enqueue + V.
	a.onP = func(id SemID) {
		q.msgs = append(q.msgs, Msg{Val: 42})
		a.sems[id]++
	}
	m := mustWait(t, q, a)
	if m.Val != 42 {
		t.Fatalf("got %+v", m)
	}
	if a.blockedAt != 1 {
		t.Fatalf("blockedAt = %d, want exactly one block", a.blockedAt)
	}
	if !q.awake {
		t.Fatal("C.5 must set the flag after waking")
	}
}

func TestConsumerWaitDrainsPendingWake(t *testing.T) {
	// Interleaving 3: the reply lands between the two dequeues AND the
	// producer issued a V (flag was observed clear). The consumer must
	// drain the pending V without blocking.
	q := newFakePort(0, 4)
	a := newFakeActor(1)
	first := true
	drainQ := q
	// Simulate: first dequeue empty; then producer enqueues, TASes the
	// flag (sets it) and Vs; second dequeue succeeds.
	q.awake = true
	hook := func() {
		if first {
			first = false
			drainQ.msgs = append(drainQ.msgs, Msg{Val: 9})
			// producer's TAS: finds the flag clear (consumer just
			// cleared it), sets it, and Vs.
			drainQ.awake = true
			a.sems[0]++
		}
	}
	// Use the dequeue-attempt counter to trigger the hook after C.2:
	// wrap via SetAwake.
	wrapped := &setAwakeHookPort{fakePort: q, onClear: hook}
	m := mustWait(t, wrapped, a)
	if m.Val != 9 {
		t.Fatalf("got %+v", m)
	}
	if a.sems[0] != 0 {
		t.Fatalf("pending V not drained: sem = %d", a.sems[0])
	}
	if a.blockedAt != 0 {
		t.Fatal("the drain P must not block (count was 1)")
	}
}

type setAwakeHookPort struct {
	*fakePort
	onClear func()
}

func (p *setAwakeHookPort) SetAwake(v bool) {
	p.fakePort.SetAwake(v)
	if !v && p.onClear != nil {
		p.onClear()
	}
}

func TestConsumerWaitLateReplyNoPendingWake(t *testing.T) {
	// The reply lands between the two dequeues but NO producer V'd (the
	// producer saw the flag still set). The consumer's TAS finds the
	// flag clear (it cleared it itself), so no P.
	q := newFakePort(0, 4)
	a := newFakeActor(1)
	wrapped := &setAwakeHookPort{fakePort: q, onClear: func() {
		if len(q.msgs) == 0 {
			q.msgs = append(q.msgs, Msg{Val: 5})
		}
	}}
	m := mustWait(t, wrapped, a)
	if m.Val != 5 {
		t.Fatalf("got %+v", m)
	}
	if a.blockedAt != 0 {
		t.Fatal("must not block")
	}
	if !q.awake {
		t.Fatal("flag must be re-set")
	}
}

func TestSpinPollStats(t *testing.T) {
	q := newFakePort(0, 4)
	a := newFakeActor(1)
	m := &metrics.Proc{}
	// A spin that falls through parks: the "producer" runs then.
	a.onP = func(id SemID) {
		q.msgs = append(q.msgs, Msg{})
		a.sems[id]++
	}
	spin := func() {
		t.Helper()
		if _, err := receiveLeg(context.Background(), BSLS, 5, nil, q, a, m, obs.Hook{}, legHint{}); err != nil {
			t.Fatal(err)
		}
	}

	// Exhaustion: queue stays empty.
	spin()
	if m.SpinLoops.Load() != 1 || m.SpinFallThrus.Load() != 1 || m.SpinIters.Load() != 5 {
		t.Fatalf("exhaustion stats: loops=%d falls=%d iters=%d",
			m.SpinLoops.Load(), m.SpinFallThrus.Load(), m.SpinIters.Load())
	}
	if a.polls != 5 || a.blockedAt != 1 {
		t.Fatalf("polls = %d, blocks = %d", a.polls, a.blockedAt)
	}

	// Early success: message appears after 2 polls.
	count := 0
	a.onBusy = func() {
		count++
		if count == 2 {
			q.msgs = append(q.msgs, Msg{})
		}
	}
	spin()
	if m.SpinLoops.Load() != 2 || m.SpinFallThrus.Load() != 1 {
		t.Fatalf("early-success stats: loops=%d falls=%d", m.SpinLoops.Load(), m.SpinFallThrus.Load())
	}
	if m.SpinIters.Load() != 7 {
		t.Fatalf("iters = %d, want 7", m.SpinIters.Load())
	}

	// Immediate success: no polls.
	q.msgs = append(q.msgs, Msg{})
	before := a.polls
	spin()
	if a.polls != before {
		t.Fatal("non-empty queue must not poll")
	}
	if a.blockedAt != 1 {
		t.Fatalf("blocks = %d, want the exhaustion's one", a.blockedAt)
	}
}

// TestBusySpinUntil: BSS busy-waits (Figure 1) between failed queue
// operations, once per failure.
func TestBusySpinUntil(t *testing.T) {
	q := newFakePort(0, 4)
	a := newFakeActor(0)
	a.onBusy = func() {
		if a.busyWaits == 3 {
			q.msgs = append(q.msgs, Msg{Val: 4})
		}
	}
	m, err := receiveLeg(context.Background(), BSS, 0, nil, q, a, nil, obs.Hook{}, legHint{})
	if err != nil || m.Val != 4 {
		t.Fatalf("got %+v, %v", m, err)
	}
	if a.busyWaits != 3 {
		t.Fatalf("busyWaits = %d, want 3", a.busyWaits)
	}
}
