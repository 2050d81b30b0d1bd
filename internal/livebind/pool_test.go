package livebind

import (
	"context"
	"sync"
	"testing"

	"ulipc/internal/core"
)

// runPool drives a live worker pool end-to-end and returns total served.
func runPool(t *testing.T, alg core.Algorithm, workers, clients, msgs int) int64 {
	t.Helper()
	maxSpin := 4
	if alg == core.BSA {
		maxSpin = 0 // the controller owns the budget; a fixed one is rejected
	}
	sys, err := NewSystem(Options{Alg: alg, Clients: clients, MaxSpin: maxSpin})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sys.WorkerPool(workers)
	if err != nil {
		t.Fatal(err)
	}
	var swg sync.WaitGroup
	for _, w := range pool {
		swg.Add(1)
		go func(w *core.PoolWorker) {
			defer swg.Done()
			if err := w.ServeCtx(context.Background(), nil); err != nil {
				t.Error(err)
			}
		}(w)
	}

	var barrier, wg sync.WaitGroup
	barrier.Add(clients)
	for i := 0; i < clients; i++ {
		cl, err := sys.PoolClient(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			if ans := cl.Send(core.Msg{Op: core.OpConnect}); ans.Op != core.OpConnect {
				t.Errorf("client %d: bad connect reply %+v", i, ans)
			}
			barrier.Done()
			barrier.Wait()
			for j := 0; j < msgs; j++ {
				ans := cl.Send(core.Msg{Op: core.OpEcho, Seq: int32(j), Val: float64(j)})
				if ans.Seq != int32(j) || ans.Val != float64(j) {
					t.Errorf("client %d: reply mismatch at %d: %+v", i, j, ans)
					return
				}
			}
			cl.Send(core.Msg{Op: core.OpDisconnect})
		}(i, cl)
	}
	wg.Wait()
	swg.Wait() // every worker must observe the shutdown broadcast
	return pool[0].C.Served()
}

func TestPoolLiveAllAlgorithms(t *testing.T) {
	for _, alg := range core.Algorithms() {
		served := runPool(t, alg, 3, 4, 200)
		if served != 800 {
			t.Errorf("%s: served %d, want 800", alg, served)
		}
	}
}

func TestPoolLiveSingleWorker(t *testing.T) {
	if served := runPool(t, core.BSW, 1, 2, 150); served != 300 {
		t.Errorf("served %d", served)
	}
}

func TestPoolLiveManyWorkersFewClients(t *testing.T) {
	// More workers than clients: surplus workers must park and shut
	// down cleanly via the broadcast.
	if served := runPool(t, core.BSW, 6, 2, 100); served != 200 {
		t.Errorf("served %d", served)
	}
}

func TestPoolValidation(t *testing.T) {
	sys, err := NewSystem(Options{Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.WorkerPool(0); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := sys.PoolClient(5); err == nil {
		t.Error("out-of-range pool client accepted")
	}
}

func TestPoolPortWaiterOps(t *testing.T) {
	sys, err := NewSystem(Options{Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPoolPort(sys.ReceiveChannel())
	if p.ClaimWake() {
		t.Fatal("claim on zero waiters succeeded")
	}
	p.RegisterWaiter()
	p.RegisterWaiter()
	if !p.ClaimWake() {
		t.Fatal("claim failed with registered waiters")
	}
	if !p.TryUnregisterWaiter() {
		t.Fatal("unregister failed")
	}
	if p.TryUnregisterWaiter() {
		t.Fatal("unregister succeeded on zero count")
	}
}
