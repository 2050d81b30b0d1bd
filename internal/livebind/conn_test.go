package livebind

import (
	"context"
	"sync"
	"testing"
	"time"

	"ulipc/internal/core"
)

func TestConnectLifecycle(t *testing.T) {
	sys, err := NewSystem(Options{Alg: core.BSLS, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	done := make(chan int64, 1)
	go func() { done <- srv.Serve(nil) }()

	c1, err := sys.ConnectCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := sys.ConnectCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c1.Slot() == c2.Slot() {
		t.Fatal("two connections share a slot")
	}
	// All slots in use.
	if _, err := sys.ConnectCtx(context.Background()); err == nil {
		t.Fatal("third connection accepted with 2 slots")
	}
	ans, err := c1.SendCtx(context.Background(), core.Msg{Op: core.OpEcho, Val: 5})
	if err != nil || ans.Val != 5 {
		t.Fatalf("send: %v %v", ans, err)
	}
	if err := c1.CloseCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The slot is reusable.
	c3, err := sys.ConnectCtx(context.Background())
	if err != nil {
		t.Fatalf("reconnect after close: %v", err)
	}
	if c3.Slot() != c1.Slot() {
		t.Fatalf("slot not reused: %d vs %d", c3.Slot(), c1.Slot())
	}
	c3.CloseCtx(context.Background())
	c2.CloseCtx(context.Background())
	<-done
}

// The connect and disconnect handshakes pass admission: at high water
// Connect still connects and Close still delivers its disconnect, so
// the server's Serve returns once the last client is gone.
func TestHandshakesBypassHighWater(t *testing.T) {
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 2, Admission: Admission{HighWater: 1}})
	if err != nil {
		t.Fatal(err)
	}
	started, release, quit := make(chan struct{}), make(chan struct{}), make(chan struct{})
	defer func() {
		close(quit) // a failed check must not leave the server parked in work
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sys.Shutdown(ctx)
	}()
	work := func(*core.Msg) {
		select {
		case started <- struct{}{}:
			select {
			case <-release:
			case <-quit:
			}
		case <-quit:
		}
	}
	done := make(chan int64, 1)
	go func() { done <- sys.Server().Serve(work) }()

	filler, err := sys.ConnectCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	depth := filler.cl.Srv
	// atHighWater parks the server in work and leaves one more request
	// queued behind it, so the request queue sits at the mark; handshake
	// then runs, and both requests are served once it is queued too.
	atHighWater := func(name string, handshake func() error) {
		t.Helper()
		ctx := context.Background()
		if err := filler.SendAsyncCtx(ctx, core.Msg{Op: core.OpWork}); err != nil {
			t.Fatal(err)
		}
		<-started
		if err := filler.SendAsyncCtx(ctx, core.Msg{Op: core.OpWork}); err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() { errc <- handshake() }()
		for deadline := time.Now().Add(5 * time.Second); depth.Depth() < 2; time.Sleep(time.Millisecond) {
			select {
			case err := <-errc:
				t.Fatalf("%s at high water returned before it was queued: %v", name, err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s at high water never reached the queue", name)
			}
		}
		release <- struct{}{}
		<-started
		release <- struct{}{}
		if err := <-errc; err != nil {
			t.Fatalf("%s at high water: %v", name, err)
		}
		for i := 0; i < 2; i++ {
			if _, err := filler.RecvReplyCtx(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	var c *Conn
	atHighWater("ConnectCtx", func() (err error) { c, err = sys.ConnectCtx(context.Background()); return err })
	atHighWater("CloseCtx", func() error { return c.CloseCtx(context.Background()) })
	filler.CloseCtx(context.Background())
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still running after every client closed")
	}
}

func TestConnClosedOps(t *testing.T) {
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	go srv.Serve(nil)
	c, err := sys.ConnectCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c.CloseCtx(context.Background())
	if err := c.CloseCtx(context.Background()); err != nil {
		t.Fatal("Close must be idempotent")
	}
	if _, err := c.SendCtx(context.Background(), core.Msg{Op: core.OpEcho}); err == nil {
		t.Fatal("send on closed connection accepted")
	}
	if err := c.SendAsyncCtx(context.Background(), core.Msg{Op: core.OpEcho}); err == nil {
		t.Fatal("async send on closed connection accepted")
	}
	if _, err := c.RecvReplyCtx(context.Background()); err == nil {
		t.Fatal("recv on closed connection accepted")
	}
}

func TestConnectChurn(t *testing.T) {
	// Many short-lived clients over few slots: the long-running server
	// must survive arbitrary connect/disconnect sequences. Serve exits
	// when the connected count hits zero, so the test holds one anchor
	// connection open for the duration.
	sys, err := NewSystem(Options{Alg: core.BSLS, MaxSpin: 4, Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	done := make(chan int64, 1)
	go func() { done <- srv.Serve(nil) }()

	anchor, err := sys.ConnectCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c, err := sys.ConnectCtx(context.Background())
				if err != nil {
					continue // transient slot exhaustion is expected
				}
				for j := 0; j < 5; j++ {
					ans, err := c.SendCtx(context.Background(), core.Msg{Op: core.OpEcho, Seq: int32(j)})
					if err != nil || ans.Seq != int32(j) {
						t.Errorf("g%d: bad reply %+v %v", g, ans, err)
					}
				}
				c.CloseCtx(context.Background())
			}
		}(g)
	}
	wg.Wait()
	anchor.CloseCtx(context.Background())
	<-done
}
