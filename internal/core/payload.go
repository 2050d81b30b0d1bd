package core

import (
	"context"
	"errors"
)

// The zero-copy lease discipline (Section 2.1 realised end to end): a
// payload is a shared-memory block a fixed-size message points at. At
// any instant exactly one endpoint holds the block's lease:
//
//	client AllocPayload  →  fill in place  →  SendPayload   (lease rides the message)
//	server Payload(m)    →  read/write in place             (server claims the lease)
//	server reply         →  Release (block returns to pool) or re-lease it
//	                         for the response (reply carries the ref back)
//	client reply payload →  read in place  →  Release
//
// Payload bytes never cross a queue — only the 32-bit reference does.
// The lease tag (shm.BlockPool owner words) tracks the current holder
// so a sweeper can return a dead endpoint's blocks; ClaimGen (a tag CAS)
// resolves the race between a receiver adopting a payload and a sweeper
// reclaiming its dead sender's leases: exactly one side wins, so a
// block is never freed twice and never used after reclaim. The claim
// names the generation the message was stamped with, so it also loses
// when the sweeper won long ago and the slot has a new holder by now.

// Typed sentinels for the payload paths.
var (
	// ErrNoBlocks: the system was built without a payload arena
	// (Options.BlockSlots == 0 / SegConfig.Blocks == 0).
	ErrNoBlocks = errors.New("core: no payload block arena configured")
	// ErrBlocksExhausted: every size class that fits the request is
	// empty — backpressure, exactly like a full queue.
	ErrBlocksExhausted = errors.New("core: payload block classes exhausted")
	// ErrNoPayload: the message carries no payload reference.
	ErrNoPayload = errors.New("core: message carries no payload")
	// ErrPayloadLost: the payload's previous holder died and a sweeper
	// reclaimed the block before it could be claimed; the bytes are
	// gone (the slot may already be reallocated).
	ErrPayloadLost = errors.New("core: payload block reclaimed after peer death")
)

// BlockStore is the slab-arena surface the lease discipline runs over.
// *shm.BlockPool implements it directly; livebind wraps it with a
// per-producer batched cache.
type BlockStore interface {
	// Alloc returns a block of at least n bytes (false on exhaustion).
	Alloc(n int) (ref uint32, data []byte, ok bool)
	// Get resolves a block's storage.
	Get(ref uint32) ([]byte, error)
	// Free returns a block to its class, clearing its lease tag.
	Free(ref uint32) error
	// Lease tags the block as held by owner.
	Lease(ref uint32, owner uint32) error
	// Gen returns the block's generation, stamped on messages beside
	// the reference.
	Gen(ref uint32) uint8
	// ClaimGen transfers the lease to owner; false if the block has
	// been reclaimed since it was at generation gen.
	ClaimGen(ref uint32, gen uint8, owner uint32) bool
	// MaxBlock is the largest allocatable payload.
	MaxBlock() int
}

// Payload is a leased view of a shared-memory block: the full class
// storage plus the current payload length. The holder may read and
// write Bytes() in place; the view is dead after Release or after the
// lease is transferred by SendPayload/ReplyPayloadCtx.
type Payload struct {
	store BlockStore
	ref   uint32
	gen   uint8
	buf   []byte
	n     int
}

// Bytes returns the payload bytes (length Len, writable in place).
func (p *Payload) Bytes() []byte { return p.buf[:p.n] }

// Len returns the current payload length.
func (p *Payload) Len() int { return p.n }

// Cap returns the block's class size — the ceiling for Resize.
func (p *Payload) Cap() int { return len(p.buf) }

// Ref returns the block reference the message will carry.
func (p *Payload) Ref() uint32 { return p.ref }

// Resize sets the payload length within the block's capacity, e.g. to
// reuse a request's block for a differently-sized response.
func (p *Payload) Resize(n int) error {
	if n < 0 || n > len(p.buf) {
		return ErrBlocksExhausted
	}
	p.n = n
	return nil
}

// Release returns the block to the pool. The view is unusable after.
func (p *Payload) Release() error {
	if p.store == nil {
		return ErrNoPayload
	}
	err := p.store.Free(p.ref)
	p.store = nil
	return err
}

// AttachPayload transfers p's lease onto m, for handler-style servers
// whose reply is the mutated request (Serve/ServeCtx work callbacks):
// the message carries the reference onward and the view is dead.
func (m *Msg) AttachPayload(p *Payload) {
	m.setBlock(p.ref, p.gen, p.n)
	p.store = nil
}

// allocPayload / resolvePayload are the shared client/server halves.
// They return the view by value and stay out of line, so the exported
// wrappers fit the inliner's budget: each takes the address of the
// value it got back, and a caller that does not keep the view keeps it
// on its own stack instead of the heap.

//go:noinline
func allocPayload(store BlockStore, owner uint32, n int) (Payload, error) {
	if store == nil {
		return Payload{}, ErrNoBlocks
	}
	ref, buf, ok := store.Alloc(n)
	if !ok {
		return Payload{}, ErrBlocksExhausted
	}
	if err := store.Lease(ref, owner); err != nil {
		_ = store.Free(ref)
		return Payload{}, err
	}
	return Payload{store: store, ref: ref, gen: store.Gen(ref), buf: buf, n: n}, nil
}

// resolvePayload claims the lease on a received message's payload and
// builds the view. A failed claim means a sweeper got there first
// (the sender died): the payload is lost, not usable — and the slot,
// which may have been reallocated since, is not ours to free.
//
//go:noinline
func resolvePayload(store BlockStore, owner uint32, m Msg) (Payload, error) {
	if store == nil {
		return Payload{}, ErrNoBlocks
	}
	if !m.HasBlock() {
		return Payload{}, ErrNoPayload
	}
	ref, n := m.Block()
	gen := m.BlockGen()
	if !store.ClaimGen(ref, gen, owner) {
		return Payload{}, ErrPayloadLost
	}
	buf, err := store.Get(ref)
	if err != nil {
		return Payload{}, err
	}
	if n > len(buf) {
		n = len(buf)
	}
	return Payload{store: store, ref: ref, gen: gen, buf: buf, n: n}, nil
}

// DropPayload claim-frees a discarded message's payload (a stale or
// refused reply, an orphan a recovery sweeper drained) and reports
// whether it freed the block; the claim loses to any earlier reclaimer.
func DropPayload(store BlockStore, owner uint32, m Msg) bool {
	if store == nil || !m.HasBlock() {
		return false
	}
	ref, _ := m.Block()
	if !store.ClaimGen(ref, m.BlockGen(), owner) {
		return false
	}
	return store.Free(ref) == nil
}

// ---- Client surface ----

// AllocPayload leases a block of at least n bytes for an outgoing
// request; fill Bytes() in place and pass it to SendPayload.
func (c *Client) AllocPayload(n int) (p *Payload, err error) {
	v, err := allocPayload(c.Blocks, c.Owner, n)
	if err == nil {
		p = &v
	}
	return
}

// Payload resolves (claims) the payload of a reply returned by
// SendCtx. The caller owns the lease: Release it, or keep the
// block for a later SendPayload.
func (c *Client) Payload(m Msg) (p *Payload, err error) {
	v, err := resolvePayload(c.Blocks, c.Owner, m)
	if err == nil {
		p = &v
	}
	return
}

// SendPayload performs a request/response exchange carrying p (which
// may be nil for a control-only message). On success the request
// lease has been transferred; the reply's payload — if the server
// attached or re-leased one — is claimed and returned, and the caller
// owns it.
//
// On error: if the request was never enqueued the payload has been
// returned to the pool; if it was enqueued (reply lost to cancellation
// or peer death) the lease is in flight and the recovery layer — the
// sweeper's owner walk, the stale-reply drain, or the post-mortem
// Reclaim — accounts for it. Either way the caller must forget p.
func (c *Client) SendPayload(ctx context.Context, m Msg, p *Payload) (ans Msg, rp *Payload, err error) {
	var v Payload
	ans, v, err = c.sendPayload(ctx, m, p)
	if v.store != nil {
		rp = &v
	}
	return
}

// sendPayload is SendPayload's body, out of line for the same reason
// as allocPayload: it returns the reply's view by value (zero when the
// reply carries none).
//
//go:noinline
func (c *Client) sendPayload(ctx context.Context, m Msg, p *Payload) (Msg, Payload, error) {
	if p != nil {
		m.setBlock(p.ref, p.gen, p.n)
		p.store = nil // lease leaves this handle with the message
	}
	ans, sent, err := c.sendCtx(ctx, m)
	if err != nil {
		if p != nil && !sent {
			// The request never reached the queue: the lease is still
			// ours — return it.
			_ = c.Blocks.Free(p.ref)
		}
		return Msg{}, Payload{}, err
	}
	if p != nil {
		c.Obs.Payload(p.n)
	}
	if !ans.HasBlock() {
		return ans, Payload{}, nil
	}
	rp, err := resolvePayload(c.Blocks, c.Owner, ans)
	return ans, rp, err
}

// ---- Server surface ----

// Payload resolves (claims) the payload of a received request. The
// server owns the lease: Release it before an empty reply, or re-lease
// it for the response via ReplyPayloadCtx / Msg.AttachPayload.
func (s *Server) Payload(m Msg) (p *Payload, err error) {
	v, err := resolvePayload(s.Blocks, s.Owner, m)
	if err == nil {
		p = &v
	}
	return
}

// AllocPayload leases a fresh block for a response.
func (s *Server) AllocPayload(n int) (p *Payload, err error) {
	v, err := allocPayload(s.Blocks, s.Owner, n)
	if err == nil {
		p = &v
	}
	return
}

// ReplyPayloadCtx is ReplyCtx with m carrying p's lease (p nil clears
// any stale reference instead). After a successful reply the server no
// longer owns p — the receiving client claims it — and its size is
// recorded in the Payload histogram. On error the lease stays with the
// server (p remains valid and must still be released or retried).
func (s *Server) ReplyPayloadCtx(ctx context.Context, client int32, m Msg, p *Payload) error {
	if p != nil {
		m.setBlock(p.ref, p.gen, p.n)
	} else {
		m.ClearBlock()
	}
	if err := s.ReplyCtx(ctx, client, m); err != nil {
		return err
	}
	if p != nil {
		s.Obs.Payload(p.n)
		p.store = nil
	}
	return nil
}
