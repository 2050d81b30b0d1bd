// workerpool: multiple server threads on one shared receive queue — the
// Section 2.1 extension. Four workers serve CPU-heavy requests (leibniz
// partial sums) in parallel for eight clients.
//
// The interesting part is invisible: the wake-up discipline. The paper's
// single awake flag loses wake-ups as soon as two workers sleep (run
// `go run ./cmd/ipcrace` for the exhaustive proof); the pool uses the
// counted-waiters discipline verified by the same model checker.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"ulipc"
)

func main() {
	const (
		workers       = 4
		clients       = 8
		reqsPerClient = 50
		termsPerSlice = 20000
	)

	sys, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSW, Clients: clients})
	if err != nil {
		log.Fatal(err)
	}

	pool, err := sys.WorkerPool(workers)
	if err != nil {
		log.Fatal(err)
	}
	var serverWG sync.WaitGroup
	for _, w := range pool {
		serverWG.Add(1)
		go func(w *ulipc.PoolWorker) {
			defer serverWG.Done()
			err := w.ServeCtx(context.Background(), func(m *ulipc.Msg) {
				// Partial Leibniz sum for slice m.Seq: CPU-bound work a
				// single-threaded server would serialise.
				start := int(m.Seq) * termsPerSlice
				sum := 0.0
				for k := start; k < start+termsPerSlice; k++ {
					term := 1.0 / float64(2*k+1)
					if k%2 == 1 {
						term = -term
					}
					sum += term
				}
				m.Val = sum
			})
			if err != nil {
				log.Fatal(err)
			}
		}(w)
	}

	var barrier, wg sync.WaitGroup
	barrier.Add(clients)
	partials := make([]float64, clients)
	for c := 0; c < clients; c++ {
		cl, err := sys.PoolClient(c)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(c int, cl *ulipc.Client) {
			defer wg.Done()
			cl.Send(ulipc.Msg{Op: ulipc.OpConnect})
			barrier.Done()
			barrier.Wait()
			sum := 0.0
			for j := 0; j < reqsPerClient; j++ {
				slice := int32(c*reqsPerClient + j)
				ans := cl.Send(ulipc.Msg{Op: ulipc.OpWork, Seq: slice})
				sum += ans.Val
			}
			partials[c] = sum
			cl.Send(ulipc.Msg{Op: ulipc.OpDisconnect})
		}(c, cl)
	}
	wg.Wait()
	serverWG.Wait()

	pi := 0.0
	for _, p := range partials {
		pi += p
	}
	pi *= 4
	fmt.Printf("workerpool: %d workers served %d requests for %d clients -> pi ~= %.9f\n",
		workers, pool[0].C.Served(), clients, pi)
}
