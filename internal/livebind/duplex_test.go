package livebind

import (
	"context"
	"sync"
	"testing"

	"ulipc/internal/core"
)

func TestDuplexRequiresOption(t *testing.T) {
	sys, err := NewSystem(Options{Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.DuplexPair(0); err == nil {
		t.Fatal("DuplexPair without Options.Duplex accepted")
	}
}

func TestDuplexPairBounds(t *testing.T) {
	sys, err := NewSystem(Options{Clients: 2, Duplex: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.DuplexPair(2); err == nil {
		t.Fatal("out-of-range duplex index accepted")
	}
	if _, _, err := sys.DuplexPair(-1); err == nil {
		t.Fatal("negative duplex index accepted")
	}
}

func TestDuplexEchoAllAlgorithms(t *testing.T) {
	for _, alg := range core.Algorithms() {
		sys, err := NewSystem(Options{Alg: alg, Clients: 3, Duplex: true})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			cl, h, err := sys.DuplexPair(i)
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan int64, 1)
			go func() { n, _ := h.ServeConnCtx(context.Background(), nil); served <- n }()
			wg.Add(1)
			go func(i int, cl *core.Client) {
				defer wg.Done()
				for j := 0; j < 200; j++ {
					ans := cl.Send(core.Msg{Op: core.OpEcho, Seq: int32(j), Val: float64(j)})
					if ans.Seq != int32(j) || ans.Val != float64(j) {
						t.Errorf("%s conn %d: reply mismatch at %d: %+v", alg, i, j, ans)
						return
					}
				}
				cl.Send(core.Msg{Op: core.OpDisconnect})
				if got := <-served; got != 200 {
					t.Errorf("%s conn %d: served %d, want 200", alg, i, got)
				}
			}(i, cl)
		}
		wg.Wait()
	}
}

func TestDuplexWorkCallback(t *testing.T) {
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, Duplex: true})
	if err != nil {
		t.Fatal(err)
	}
	cl, h, err := sys.DuplexPair(0)
	if err != nil {
		t.Fatal(err)
	}
	go h.ServeConnCtx(context.Background(), func(m *core.Msg) { m.Val *= 3 })
	ans := cl.Send(core.Msg{Op: core.OpWork, Val: 7})
	if ans.Val != 21 {
		t.Fatalf("work reply = %v, want 21", ans.Val)
	}
	cl.Send(core.Msg{Op: core.OpDisconnect})
}

func TestBlocksRoundTrip(t *testing.T) {
	sys, err := NewSystem(Options{Alg: core.BSLS, Clients: 1, BlockSlots: 8})
	if err != nil {
		t.Fatal(err)
	}
	pool := sys.Blocks()
	if pool == nil {
		t.Fatal("no block pool")
	}

	srv := sys.Server()
	go srv.Serve(func(m *core.Msg) {
		// Uppercase the variable-sized component in place.
		ref, n := m.Block()
		buf, err := pool.Get(ref)
		if err != nil {
			t.Errorf("server: %v", err)
			return
		}
		for i := 0; i < n; i++ {
			if buf[i] >= 'a' && buf[i] <= 'z' {
				buf[i] -= 'a' - 'A'
			}
		}
	})

	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	cl.Send(core.Msg{Op: core.OpConnect})

	payload := "hello, variable-sized world"
	ref, buf, ok := pool.Alloc(len(payload))
	if !ok {
		t.Fatal("block alloc failed")
	}
	copy(buf, payload)
	req := core.Msg{Op: core.OpWork}
	req.SetBlock(ref, len(payload))
	ans := cl.Send(req)

	gotRef, n := ans.Block()
	got, err := pool.Get(gotRef)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:n]) != "HELLO, VARIABLE-SIZED WORLD" {
		t.Fatalf("got %q", got[:n])
	}
	pool.Free(gotRef)
	cl.Send(core.Msg{Op: core.OpDisconnect})
}

func TestBlocksAbsentByDefault(t *testing.T) {
	sys, err := NewSystem(Options{Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Blocks() != nil {
		t.Fatal("block pool present without BlockSlots")
	}
}
