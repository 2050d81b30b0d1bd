// taskfarm: asynchronous IPC as a task queue — the parallel-application
// use the paper's introduction motivates ("IPC is also integral to
// parallel applications that must co-ordinate worker activities (eg.
// using barrier operations or task queues)") and the asynchronous mode
// whose batching advantage the async experiment quantifies.
//
// A master farms numeric-integration slices to a worker (the server)
// in asynchronous batches, then collects the partial results. Because
// the sends are asynchronous, the worker drains whole batches per
// activation without any kernel involvement between requests.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"ulipc"
)

func main() {
	const (
		slices = 4096 // integration slices farmed out
		batch  = 32   // async sends in flight per batch
	)

	sys, err := ulipc.NewSystem(ulipc.Options{
		Alg:     ulipc.BSW, // pure blocking: the batching does the work
		Clients: 1,
		// A batch must fit in the shared queue.
		QueueCap: batch * 2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Worker: integrate f(x) = 4/(1+x^2) over the slice [Val, Val+w] —
	// summing the replies approximates pi.
	width := 1.0 / float64(slices)
	srv := sys.Server()
	go srv.Serve(func(m *ulipc.Msg) {
		x := m.Val + width/2
		m.Val = 4.0 / (1.0 + x*x) * width
	})

	master, err := sys.Client(0)
	if err != nil {
		log.Fatal(err)
	}
	master.Send(ulipc.Msg{Op: ulipc.OpConnect})

	ctx := context.Background()
	sum := 0.0
	seq := int32(0)
	for issued := 0; issued < slices; {
		n := batch
		if slices-issued < n {
			n = slices - issued
		}
		// Enqueue the whole batch without waiting: one wake-up suffices
		// if the worker is sleeping, zero if it is already draining.
		for i := 0; i < n; i++ {
			if err := master.SendAsyncCtx(ctx, ulipc.Msg{Op: ulipc.OpWork, Seq: seq, Val: float64(issued+i) * width}); err != nil {
				log.Fatal(err)
			}
			seq++
		}
		for i := 0; i < n; i++ {
			r, err := master.RecvReplyCtx(ctx)
			if err != nil {
				log.Fatal(err)
			}
			sum += r.Val
		}
		issued += n
	}
	master.Send(ulipc.Msg{Op: ulipc.OpDisconnect})

	fmt.Printf("taskfarm: %d slices in batches of %d -> pi ~= %.9f (error %.2e)\n",
		slices, batch, sum, math.Abs(sum-math.Pi))
	if math.Abs(sum-math.Pi) > 1e-6 {
		log.Fatal("taskfarm: integration error out of tolerance")
	}
}
