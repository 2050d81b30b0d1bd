package livebind

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ulipc/internal/core"
	"ulipc/internal/queue"
)

// TestSwitchDepthActorYield: the actor's yields call runtime.Gosched
// themselves (DESIGN.md "Switch depth"), so the frame under Gosched in
// a parked yielder's stack is the actor method, with no helper between.
// A goroutine yields in a loop; the test reads its stack until it finds
// it parked in Gosched.
func TestSwitchDepthActorYield(t *testing.T) {
	for _, method := range []string{"PollDelay", "BusyWait", "Yield"} {
		t.Run(method, func(t *testing.T) {
			a := &Actor{}
			call := map[string]func(){"PollDelay": a.PollDelay, "BusyWait": a.BusyWait, "Yield": a.Yield}[method]
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					call()
				}
			}()
			defer func() { stop.Store(true); wg.Wait() }()

			frame := "ulipc/internal/livebind.(*Actor)." + method + "("
			buf := make([]byte, 1<<16)
			for range 5000 {
				runtime.Gosched()
				stack := string(buf[:runtime.Stack(buf, true)])
				for _, g := range strings.Split(stack, "\n\n") {
					lines := strings.Split(g, "\n")
					for i := 1; i+2 < len(lines); i++ {
						if !strings.HasPrefix(lines[i], "runtime.Gosched(") {
							continue
						}
						if !strings.HasPrefix(lines[i+2], frame) {
							if strings.Contains(g, frame) {
								t.Fatalf("Gosched is called by %q, not by the actor's %s:\n%s", lines[i+2], method, g)
							}
							continue
						}
						return
					}
				}
			}
			t.Skip("never caught the yielder parked in Gosched")
		})
	}
}

// yieldAt yields from n physical frames below its first caller.
//
//go:noinline
func yieldAt(n int) {
	if n <= 1 {
		runtime.Gosched()
		return
	}
	yieldAt(n - 1)
}

// BenchmarkSwitchDepth prices a switch's depth: the bare four-client
// fan-in (a queue.Ring request queue, one queue.SPSC reply ring per
// client) with every yield made n frames below the polling loop. An op
// is one round trip. Run it with -cpu 1: on one P each failed poll is a
// goroutine switch, and the spread between depths is what the returns
// through the frames cost.
func BenchmarkSwitchDepth(b *testing.B) {
	const clients = 4
	for _, depth := range []int{1, 4, 8} {
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			req, err := queue.NewRing(64)
			if err != nil {
				b.Fatal(err)
			}
			reps := make([]*queue.SPSC, clients)
			for i := range reps {
				if reps[i], err = queue.NewSPSC(8); err != nil {
					b.Fatal(err)
				}
			}
			per := max(b.N/clients, 1)
			var wg sync.WaitGroup
			b.ResetTimer()
			for i := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					m := core.Msg{MsgMeta: core.MsgMeta{Client: int32(i)}}
					for range per {
						for !req.Enqueue(m) {
							yieldAt(depth)
						}
						for {
							if _, ok := reps[i].Dequeue(); ok {
								break
							}
							yieldAt(depth)
						}
					}
				}()
			}
			for served := 0; served < per*clients; {
				m, ok := req.Dequeue()
				if !ok {
					yieldAt(depth)
					continue
				}
				for !reps[m.Client].Enqueue(m) {
					yieldAt(depth)
				}
				served++
			}
			wg.Wait()
		})
	}
}
