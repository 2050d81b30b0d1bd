package livebind

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"ulipc/internal/core"
)

// Dynamic connection management. The shared segment pre-allocates
// Options.Clients reply queues (exactly as the paper's server allocates
// a reply queue per client); ConnectCtx claims a free slot at runtime,
// performs the connect handshake, and CloseCtx releases the slot for
// reuse — so a long-running server serves an arbitrary sequence of
// short-lived clients with a bounded segment.

// Conn is a live client connection with lifecycle management.
type Conn struct {
	cl     *core.Client
	sys    *System
	slot   int
	closed bool
	mu     sync.Mutex
}

// connPool tracks free client slots; it lives on System.
type connPool struct {
	mu   sync.Mutex
	free []int
	init bool
}

func (s *System) slots() *connPool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if !s.conns.init {
		s.conns.init = true
		for i := len(s.replies) - 1; i >= 0; i-- {
			s.conns.free = append(s.conns.free, i)
		}
	}
	return &s.conns
}

func (s *System) claimSlot() (int, error) {
	pool := s.slots()
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if len(pool.free) == 0 {
		return 0, fmt.Errorf("%w: all %d slots taken", ErrNoFreeSlots, len(s.replies))
	}
	slot := pool.free[len(pool.free)-1]
	pool.free = pool.free[:len(pool.free)-1]
	return slot, nil
}

func (s *System) releaseSlot(slot int) {
	pool := s.slots()
	pool.mu.Lock()
	pool.free = append(pool.free, slot)
	pool.mu.Unlock()
}

// ConnectCtx claims a free client slot, sends the connect handshake
// under ctx, and returns the connection. It fails with ErrNoFreeSlots
// when every slot is in use (the shared segment is a fixed-size
// resource, like the paper's mapped regions); a failed handshake
// reports its own error (ErrShutdown, ErrPeerDead). A slot whose
// handshake was cancelled mid-flight (the request is enqueued but the
// reply is still owed) is NOT returned to the free list: a fresh client
// handle on that slot would misattribute the stale connect reply. The
// slot is reclaimed only when the system shuts down.
func (s *System) ConnectCtx(ctx context.Context) (*Conn, error) {
	slot, err := s.claimSlot()
	if err != nil {
		return nil, err
	}
	cl, err := s.Client(slot)
	if err != nil {
		s.releaseSlot(slot)
		return nil, err
	}
	ans, err := cl.SendCtx(ctx, core.Msg{Op: core.OpConnect})
	if err != nil {
		DrainPort(cl.Srv)
		if cl.Lag() == 0 || errors.Is(err, core.ErrShutdown) {
			s.releaseSlot(slot)
		}
		return nil, err
	}
	if ans.Op != core.OpConnect {
		DrainPort(cl.Srv)
		s.releaseSlot(slot)
		return nil, fmt.Errorf("livebind: bad connect reply %+v", ans)
	}
	return &Conn{cl: cl, sys: s, slot: slot}, nil
}

// SendCtx issues a synchronous request honouring the context's
// deadline/cancellation (see core.Client.SendCtx for the error
// contract).
func (c *Conn) SendCtx(ctx context.Context, m core.Msg) (core.Msg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return core.Msg{}, core.ErrDisconnected
	}
	return c.cl.SendCtx(ctx, m)
}

// SendAsyncCtx issues an asynchronous request; collect replies with
// RecvReplyCtx.
func (c *Conn) SendAsyncCtx(ctx context.Context, m core.Msg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return core.ErrDisconnected
	}
	return c.cl.SendAsyncCtx(ctx, m)
}

// RecvReplyCtx collects one reply for a previous SendAsyncCtx.
func (c *Conn) RecvReplyCtx(ctx context.Context) (core.Msg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return core.Msg{}, core.ErrDisconnected
	}
	return c.cl.RecvReplyCtx(ctx)
}

// Slot returns the reply-channel number this connection occupies.
func (c *Conn) Slot() int { return c.slot }

// CloseCtx sends the disconnect handshake under ctx and releases the
// slot for reuse; it is idempotent. On ErrShutdown the slot is released
// anyway (the whole system is torn down, so no handshake is owed); on
// any other error the connection stays open — the disconnect reply is
// still owed, so the caller may retry CloseCtx.
func (c *Conn) CloseCtx(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	if _, err := c.cl.SendCtx(ctx, core.Msg{Op: core.OpDisconnect}); err != nil && !errors.Is(err, core.ErrShutdown) {
		return err
	}
	c.closed = true
	// Spill any refs the connection's producer port cached from the
	// receive-queue pool: the slot outlives this connection, and parked
	// refs would otherwise leak from the pool's flow control.
	DrainPort(c.cl.Srv)
	c.sys.releaseSlot(c.slot)
	return nil
}
