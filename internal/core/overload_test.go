package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"ulipc/internal/metrics"
)

// fakeStore is a deterministic BlockStore for lease-conservation tests:
// it tracks every alloc/free and the lease owner per ref, so a test can
// assert that a drop path returned exactly the blocks it was handed.
type fakeStore struct {
	next    uint32
	bufs    map[uint32][]byte
	owners  map[uint32]uint32 // leased refs -> owner tag
	allocs  int
	frees   int
	freeErr error // injected Free failure
}

func newFakeStore() *fakeStore {
	return &fakeStore{bufs: map[uint32][]byte{}, owners: map[uint32]uint32{}}
}

func (s *fakeStore) Alloc(n int) (uint32, []byte, bool) {
	ref := s.next
	s.next++
	buf := make([]byte, n)
	s.bufs[ref] = buf
	s.allocs++
	return ref, buf, true
}

func (s *fakeStore) Get(ref uint32) ([]byte, error) {
	buf, ok := s.bufs[ref]
	if !ok {
		return nil, fmt.Errorf("fakeStore: get of unallocated ref %d", ref)
	}
	return buf, nil
}

func (s *fakeStore) Free(ref uint32) error {
	if s.freeErr != nil {
		return s.freeErr
	}
	if _, ok := s.bufs[ref]; !ok {
		return fmt.Errorf("fakeStore: double free of ref %d", ref)
	}
	delete(s.bufs, ref)
	delete(s.owners, ref)
	s.frees++
	return nil
}

func (s *fakeStore) Lease(ref uint32, owner uint32) error {
	if _, ok := s.bufs[ref]; !ok {
		return fmt.Errorf("fakeStore: lease of unallocated ref %d", ref)
	}
	s.owners[ref] = owner
	return nil
}

// The fake never reclaims by owner, so every block stays at generation 0.
func (s *fakeStore) Gen(ref uint32) uint8 { return 0 }

// ClaimGen is single-winner: only a currently-leased block can be claimed.
func (s *fakeStore) ClaimGen(ref uint32, gen uint8, owner uint32) bool {
	if _, ok := s.owners[ref]; !ok || gen != 0 {
		return false
	}
	s.owners[ref] = owner
	return true
}

func (s *fakeStore) MaxBlock() int { return 1 << 16 }

// outstanding is the conservation check: blocks allocated minus blocks
// returned. Every drop path must leave this at zero.
func (s *fakeStore) outstanding() int { return s.allocs - s.frees }

var _ BlockStore = (*fakeStore)(nil)

// payloadMsg allocates and leases a block as a client would and stamps
// it onto a message, returning the message and its ref.
func payloadMsg(t *testing.T, store *fakeStore, client int32) (Msg, uint32) {
	t.Helper()
	p, err := allocPayload(store, uint32(client)+100, 64)
	if err != nil {
		t.Fatalf("allocPayload: %v", err)
	}
	m := Msg{Op: OpEcho, MsgMeta: MsgMeta{Client: client}}
	ref := p.Ref()
	m.AttachPayload(&p)
	return m, ref
}

// closablePort is a fakePort with shutdown state, for driving the drop
// branches that trigger only on a refusing/closed reply channel.
type closablePort struct {
	fakePort
	refusing bool
	closed   bool
}

func (p *closablePort) Refusing() bool { return p.refusing }
func (p *closablePort) Closed() bool   { return p.closed }

// ---- DropPayload conservation on every Reply drop path ----

// Reply to an out-of-range client number must claim-free the payload:
// the message is dropped, so the lease would otherwise be stranded on a
// live owner no sweeper walks.
func TestReplyInvalidClientFreesPayload(t *testing.T) {
	for _, client := range []int32{-1, 2, 99} {
		h := newServerHarness(BSW, 2, 0)
		store := newFakeStore()
		h.srv.Blocks = store
		h.srv.Owner = 1
		m, _ := payloadMsg(t, store, client)
		h.srv.Reply(client, m)
		if n := store.outstanding(); n != 0 {
			t.Errorf("client %d: %d blocks leaked by invalid-client drop", client, n)
		}
	}
}

// Reply onto a dead client's refusing channel (the sweeper closed it)
// must free the payload instead of stranding the lease.
func TestReplyDeadChannelFreesPayload(t *testing.T) {
	h := newServerHarness(BSW, 1, 0)
	store := newFakeStore()
	h.srv.Blocks = store
	h.srv.Owner = 1
	dead := &closablePort{fakePort: fakePort{capacity: 4, awake: true, sem: 1}, refusing: true}
	h.srv.Replies[0] = dead
	m, _ := payloadMsg(t, store, 0)
	h.reply(0, m)
	if len(dead.msgs) != 0 {
		t.Fatal("reply enqueued onto a refusing channel")
	}
	if n := store.outstanding(); n != 0 {
		t.Errorf("%d blocks leaked by dead-channel drop", n)
	}
}

// The BSS reply leg spins rather than sleeps; when the spin aborts on a
// closed port the payload must be freed on that path too.
func TestReplyBSSSpinAbortFreesPayload(t *testing.T) {
	h := newServerHarness(BSS, 1, 0)
	store := newFakeStore()
	h.srv.Blocks = store
	h.srv.Owner = 1
	// Zero capacity keeps TryEnqueue failing; closed aborts the spin.
	full := &closablePort{fakePort: fakePort{capacity: 0, awake: true, sem: 1}, closed: true}
	h.srv.Replies[0] = full
	m, _ := payloadMsg(t, store, 0)
	h.reply(0, m)
	if n := store.outstanding(); n != 0 {
		t.Errorf("%d blocks leaked by BSS spin-abort drop", n)
	}
}

// Reply runs the double-reply audit too: a reply with no request
// outstanding is not enqueued, and its payload lease is freed rather
// than stranded with the server.
func TestReplyWithoutRequestFreesPayload(t *testing.T) {
	h := newServerHarness(BSW, 1, 0)
	store := newFakeStore()
	h.srv.Blocks = store
	h.srv.Owner = 1
	m, _ := payloadMsg(t, store, 0)
	h.srv.Reply(0, m)
	if len(h.replies[0].msgs) != 0 {
		t.Fatal("reply with nothing outstanding was enqueued")
	}
	if n := store.outstanding(); n != 0 {
		t.Errorf("%d blocks leaked by the audited drop", n)
	}
}

// A delivered reply must NOT free the payload — the lease rides the
// message to the client. This pins the drop paths to dropping only.
func TestReplyDeliveredKeepsPayloadLease(t *testing.T) {
	h := newServerHarness(BSW, 1, 0)
	store := newFakeStore()
	h.srv.Blocks = store
	h.srv.Owner = 1
	m, ref := payloadMsg(t, store, 0)
	h.reply(0, m)
	if len(h.replies[0].msgs) != 1 {
		t.Fatal("reply not delivered")
	}
	if n := store.outstanding(); n != 1 {
		t.Fatalf("delivered reply changed outstanding blocks: %d, want 1", n)
	}
	// The receiving client can still claim it.
	if !store.ClaimGen(ref, 0, 7) {
		t.Error("lease not claimable by the receiver after delivery")
	}
}

// DropPayload itself: claim-then-free exactly once, no-ops on messages
// without a block and on already-reclaimed (sweeper-won) blocks.
func TestDropPayloadIdempotent(t *testing.T) {
	store := newFakeStore()
	m, _ := payloadMsg(t, store, 0)
	DropPayload(store, 1, m)
	if n := store.outstanding(); n != 0 {
		t.Fatalf("outstanding = %d after drop, want 0", n)
	}
	// Second drop of the same message: Claim fails (no lease), no
	// double free.
	DropPayload(store, 1, m)
	if store.frees != 1 {
		t.Errorf("frees = %d, want 1 (double free)", store.frees)
	}
	// No block: untouched store.
	DropPayload(store, 1, Msg{Op: OpEcho})
	if store.frees != 1 || store.allocs != 1 {
		t.Errorf("no-block drop touched the store: %+v", store)
	}
	// Nil store: must not panic.
	DropPayload(nil, 1, m)
}

// ---- Server.shed ----

// shedHarness wires a controllable clock into a server's ShedPolicy:
// deadlines ride in Val, Now is the test's variable.
func shedHarness(t *testing.T, alg Algorithm, clients int) (*serverHarness, *int64) {
	t.Helper()
	h := newServerHarness(alg, clients, 4)
	now := new(int64)
	h.srv.M = &metrics.Proc{}
	h.srv.Shed = &ShedPolicy{
		Deadline: func(m Msg) (int64, bool) {
			if m.Op != OpEcho && m.Op != OpWork {
				return 0, false // control traffic is exempt
			}
			return int64(m.Val), true
		},
		Now: func() int64 { return *now },
	}
	return h, now
}

// An expired message is dropped at dequeue: Receive skips it, counts
// the shed, frees its payload, and the fresh message behind it is
// served instead.
func TestShedDropsExpiredAtDequeue(t *testing.T) {
	for _, alg := range Algorithms() {
		h, now := shedHarness(t, alg, 1)
		store := newFakeStore()
		h.srv.Blocks = store
		h.srv.Owner = 1
		*now = 100
		expired, _ := payloadMsg(t, store, 0)
		expired.Seq, expired.Val = 1, 50 // deadline 50 < now 100
		fresh := Msg{Op: OpEcho, Seq: 2, Val: 200, MsgMeta: MsgMeta{Client: 0}}
		h.push(expired)
		h.push(fresh)
		m := h.srv.Receive()
		if m.Seq != 2 {
			t.Errorf("%s: served %+v, want the fresh Seq=2", alg, m)
		}
		if got := h.srv.M.Sheds.Load(); got != 1 {
			t.Errorf("%s: Sheds = %d, want 1", alg, got)
		}
		if n := store.outstanding(); n != 0 {
			t.Errorf("%s: %d blocks leaked by shed", alg, n)
		}
	}
}

// The shed wake is TAS-guarded exactly like a reply's: one compensating
// V for a sleeping sender (so a client parked on the never-coming reply
// re-checks its queue), none for an awake one (no token accumulation).
func TestShedWakeTokenConservation(t *testing.T) {
	h, now := shedHarness(t, BSW, 2)
	*now = 100
	// Client 0 is asleep (awake flag clear): shedding its message must
	// V its semaphore once.
	h.replies[0].awake = false
	if !h.srv.shed(Msg{Op: OpEcho, Val: 50, MsgMeta: MsgMeta{Client: 0}}) {
		t.Fatal("expired message not shed")
	}
	if h.a.sems[1] != 1 {
		t.Errorf("sleeping sender sem = %d, want 1 compensating V", h.a.sems[1])
	}
	// Its flag is now set; a second shed for the same client must not
	// accumulate another token.
	if !h.srv.shed(Msg{Op: OpEcho, Val: 60, MsgMeta: MsgMeta{Client: 0}}) {
		t.Fatal("second expired message not shed")
	}
	if h.a.sems[1] != 1 {
		t.Errorf("sem = %d after second shed, want still 1 (TAS guard)", h.a.sems[1])
	}
	// Client 1 is awake: no V at all.
	h.replies[1].awake = true
	if !h.srv.shed(Msg{Op: OpEcho, Val: 50, MsgMeta: MsgMeta{Client: 1}}) {
		t.Fatal("expired message not shed")
	}
	if h.a.sems[2] != 0 {
		t.Errorf("awake sender sem = %d, want 0", h.a.sems[2])
	}
	if got := h.srv.M.Sheds.Load(); got != 3 {
		t.Errorf("Sheds = %d, want 3", got)
	}
}

// Fresh messages, exempt ops, and unstamped policies pass through.
func TestShedPassThrough(t *testing.T) {
	h, now := shedHarness(t, BSW, 1)
	*now = 100
	for _, tc := range []struct {
		name string
		m    Msg
	}{
		{"fresh", Msg{Op: OpEcho, Val: 200, MsgMeta: MsgMeta{Client: 0}}},
		{"deadline-now", Msg{Op: OpEcho, Val: 101, MsgMeta: MsgMeta{Client: 0}}},
		{"control", Msg{Op: OpConnect, Val: 50, MsgMeta: MsgMeta{Client: 0}}},
	} {
		if h.srv.shed(tc.m) {
			t.Errorf("%s message shed", tc.name)
		}
	}
	if got := h.srv.M.Sheds.Load(); got != 0 {
		t.Errorf("Sheds = %d, want 0", got)
	}
	// No policy at all: never sheds.
	h.srv.Shed = nil
	if h.srv.shed(Msg{Op: OpEcho, Val: 0, MsgMeta: MsgMeta{Client: 0}}) {
		t.Error("shed with nil policy")
	}
}

// Shedding a message from an invalid client must still free the payload
// but not touch any reply channel.
func TestShedInvalidClient(t *testing.T) {
	h, now := shedHarness(t, BSW, 1)
	store := newFakeStore()
	h.srv.Blocks = store
	h.srv.Owner = 1
	*now = 100
	m, _ := payloadMsg(t, store, 99)
	m.Val = 50
	if !h.srv.shed(m) {
		t.Fatal("expired message not shed")
	}
	if n := store.outstanding(); n != 0 {
		t.Errorf("%d blocks leaked", n)
	}
	if h.a.sems[1] != 0 {
		t.Errorf("wake issued for invalid client: sem = %d", h.a.sems[1])
	}
}

// ---- bounded admission ----

// depthPort is a fakePort that reports a configurable queue depth.
type depthPort struct {
	fakePort
	depth int
}

func (p *depthPort) Depth() int { return p.depth }

func TestClientAdmit(t *testing.T) {
	srv := &depthPort{fakePort: fakePort{capacity: 64, awake: true}}
	c := &Client{ID: 0, Alg: BSW, Srv: srv, M: &metrics.Proc{}}

	// Disabled (HighWater 0): always admits, even at huge depth.
	srv.depth = 1 << 20
	if err := c.admit(OpEcho); err != nil {
		t.Fatalf("admit with HighWater 0: %v", err)
	}

	c.HighWater = 16
	srv.depth = 15
	if err := c.admit(OpEcho); err != nil {
		t.Fatalf("admit below high water: %v", err)
	}
	srv.depth = 16 // at the mark: reject (>=, not >)
	if err := c.admit(OpEcho); !errors.Is(err, ErrOverload) {
		t.Fatalf("admit at high water: %v, want ErrOverload", err)
	}
	srv.depth = 17
	if err := c.admit(OpEcho); !errors.Is(err, ErrOverload) {
		t.Fatalf("admit above high water: %v, want ErrOverload", err)
	}
	if got := c.M.Overloads.Load(); got != 2 {
		t.Errorf("Overloads = %d, want 2", got)
	}

	// A port that cannot report depth admits everything.
	c.Srv = newFakePort(0, 1)
	if err := c.admit(OpEcho); err != nil {
		t.Fatalf("admit on depthless port: %v", err)
	}
}

// SendAsyncCtx surfaces the admission reject before enqueueing anything.
func TestSendAsyncCtxAdmission(t *testing.T) {
	srv := &depthPort{fakePort: fakePort{capacity: 64, awake: true}, depth: 50}
	c := &Client{ID: 0, Alg: BSW, Srv: srv, Rcv: newFakePort(1, 4),
		A: newFakeActor(2), M: &metrics.Proc{}, HighWater: 48}
	err := c.SendAsyncCtx(context.Background(), Msg{Op: OpEcho})
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("SendAsyncCtx over high water: %v, want ErrOverload", err)
	}
	if srv.enqAttempts != 0 {
		t.Errorf("rejected send still attempted %d enqueues", srv.enqAttempts)
	}
	srv.depth = 0
	if err := c.SendAsyncCtx(context.Background(), Msg{Op: OpEcho}); err != nil {
		t.Fatalf("SendAsyncCtx under high water: %v", err)
	}
	if len(srv.msgs) != 1 {
		t.Fatalf("admitted send not enqueued")
	}
}

// ---- retry budget ----

func TestRetryBudget(t *testing.T) {
	// Nil and disabled budgets never refuse.
	var nb *RetryBudget
	for i := 0; i < 100; i++ {
		if !nb.take() {
			t.Fatal("nil budget refused")
		}
	}
	nb.credit() // must not panic
	zb := &RetryBudget{}
	if !zb.take() {
		t.Fatal("zero budget refused")
	}

	b := &RetryBudget{Cap: 3, Refill: 0.5}
	b.credit() // pre-priming credit is a no-op (bucket already full)
	for i := 0; i < 3; i++ {
		if !b.take() {
			t.Fatalf("take %d refused with tokens left", i)
		}
	}
	if b.take() {
		t.Fatal("take succeeded on a dry bucket")
	}
	// One credit is half a token — still dry; a second makes a whole.
	b.credit()
	if b.take() {
		t.Fatal("take succeeded on half a token")
	}
	b.credit()
	b.credit()
	if !b.take() {
		t.Fatal("take refused after refill")
	}
	// Refill caps at Cap.
	for i := 0; i < 100; i++ {
		b.credit()
	}
	if b.tokens > b.Cap {
		t.Fatalf("tokens %g exceed cap %g", b.tokens, b.Cap)
	}
}

// ---- jittered backoff (the deduplicated full-queue nap helper) ----

func TestBackoffJitterAndCeiling(t *testing.T) {
	var b backoff
	ceil := 1
	for i := 0; i < 16; i++ {
		n := b.next()
		if n < 1 || n > ceil {
			t.Fatalf("nap %d outside [1,%d] at round %d", n, ceil, i)
		}
		if ceil < 8 {
			ceil <<= 1
		}
	}
	if b.nap != 8 {
		t.Errorf("ceiling = %d after growth, want 8", b.nap)
	}
	b.reset()
	if b.nap != 1 {
		t.Errorf("ceiling = %d after reset, want 1", b.nap)
	}
	if n := b.next(); n != 1 {
		t.Errorf("first nap after reset = %d, want 1", n)
	}

	// Dealiasing: two fresh backoffs draw from distinct jitter streams.
	var b1, b2 backoff
	b1.next()
	b2.next()
	if b1.rng == b2.rng {
		t.Error("two backoffs share a jitter state: retry storms stay in phase")
	}
}

// backoff.wait is one full-queue retry round: BSS busy-waits; for the
// blocking protocols Retries always counts, a dry budget converts to
// ErrOverload + Overloads, otherwise the nap runs — the paper's flat
// sleep(1) under a context that never ends.
func TestBackoffSleep(t *testing.T) {
	a := &ctxFakeActor{fakeActor: newFakeActor(1)}
	pm := &metrics.Proc{}
	var bo backoff
	budget := &RetryBudget{Cap: 2}
	q := newFakePort(0, 1) // BSS consults its shutdown state

	ctx := context.Background()
	if err := bo.wait(ctx, BSS, q, a, budget, pm); err != nil || a.busyWaits != 1 || len(a.sleptFor) != 0 {
		t.Fatalf("BSS wait: err %v, %d busy-waits, naps %v; want one busy-wait, no nap", err, a.busyWaits, a.sleptFor)
	}
	for i := 0; i < 2; i++ {
		if err := bo.wait(ctx, BSW, q, a, budget, pm); err != nil {
			t.Fatalf("sleep %d: %v", i, err)
		}
	}
	if len(a.sleptFor) != 2 || a.sleptFor[0] != 1 || a.sleptFor[1] != 1 {
		t.Fatalf("naps %v, want the flat [1 1] under a context that never ends", a.sleptFor)
	}
	if err := bo.wait(ctx, BSW, q, a, budget, pm); !errors.Is(err, ErrOverload) {
		t.Fatalf("sleep on dry budget: %v, want ErrOverload", err)
	}
	if got := pm.Retries.Load(); got != 3 {
		t.Errorf("Retries = %d, want 3 (counted even when refused)", got)
	}
	if got := pm.Overloads.Load(); got != 1 {
		t.Errorf("Overloads = %d, want 1", got)
	}
	// Unbounded budget: nil never refuses.
	if err := bo.wait(ctx, BSW, q, a, nil, pm); err != nil {
		t.Fatalf("sleep with nil budget: %v", err)
	}
}
