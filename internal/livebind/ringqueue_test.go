package livebind

import (
	"context"
	"sync"
	"testing"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/queue"
)

// TestRingReceiveQueueStress runs the blocking protocols with four
// clients over the default receive queue, the MPMC ring, and checks
// every reply: the right client, the right request, and the server's
// transform applied. A producer whose claimed ring slot is not yet
// published hides later slots from the server, so this is where a lost
// wake-up on the ring would show as a stalled client. At quiescence no
// semaphore may hold more than one token.
func TestRingReceiveQueueStress(t *testing.T) {
	const clients = 4
	msgs := 2000
	if raceEnabled || testing.Short() {
		msgs = 500
	}
	for _, alg := range []core.Algorithm{core.BSW, core.BSWY, core.BSLS, core.BSA} {
		t.Run(alg.String(), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			sys, err := NewSystem(Options{Alg: alg, Clients: clients})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := sys.ReceiveChannel().Queue().(*queue.Ring); !ok {
				t.Fatalf("receive queue is %T, want the default *queue.Ring", sys.ReceiveChannel().Queue())
			}
			srv := sys.Server()
			served := make(chan int64, 1)
			go func() {
				n, err := srv.ServeCtx(ctx, func(m *core.Msg) { m.Val = 2*m.Val + 1 })
				if err != nil {
					t.Errorf("serve: %v", err)
				}
				served <- n
			}()

			var connected, wg sync.WaitGroup
			connected.Add(clients)
			for i := 0; i < clients; i++ {
				cl, err := sys.Client(i)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int, cl *core.Client) {
					defer wg.Done()
					if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpConnect}); err != nil {
						t.Errorf("client %d connect: %v", i, err)
					}
					// Every client connects before any disconnects, or
					// the server loop ends with the first disconnect.
					connected.Done()
					connected.Wait()
					for j := 0; j < msgs; j++ {
						v := float64(i*msgs + j)
						r, err := cl.SendCtx(ctx, core.Msg{Op: core.OpWork, Seq: int32(j), Val: v})
						if err != nil {
							t.Errorf("client %d request %d: %v", i, j, err)
							return
						}
						if r.Client != int32(i) || r.Seq != int32(j) || r.Val != 2*v+1 {
							t.Errorf("client %d request %d: reply %+v", i, j, r)
							return
						}
					}
					if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpDisconnect}); err != nil {
						t.Errorf("client %d disconnect: %v", i, err)
					}
				}(i, cl)
			}
			wg.Wait()
			if t.Failed() {
				// A client that gave up never disconnected: release the
				// server before returning.
				_ = sys.Shutdown(context.Background())
				<-served
				return
			}
			if n := <-served; n != int64(clients*msgs) {
				t.Fatalf("served %d, want %d", n, clients*msgs)
			}
			if c := sys.ReceiveChannel().SemCount(); c > 1 {
				t.Errorf("receive semaphore holds %d tokens at quiescence, want at most 1", c)
			}
			for i := 0; i < clients; i++ {
				if c := sys.ReplyChannel(i).SemCount(); c > 1 {
					t.Errorf("reply semaphore %d holds %d tokens at quiescence, want at most 1", i, c)
				}
			}
			if err := sys.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
