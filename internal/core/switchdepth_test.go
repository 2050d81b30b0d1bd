package core

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The switch-depth guard (DESIGN.md "Switch depth"): after a goroutine
// switch, every return through a frame called before it is mispredicted,
// so each yield and park of a live round trip must sit at most three
// physical frames below the public verb. The guard runs real round trips
// over an actor whose P, PCtx, PollDelay and Grant count the physical
// frames between themselves and the verb.

// maxSwitchDepth is the rule: sendCtx, receiveLeg, and the actor method.
const maxSwitchDepth = 3

// switchVerbs are the public verbs a switch is measured from.
var switchVerbs = []string{".(*Client).SendCtx", ".(*Server).ReceiveCtx", ".(*DuplexHandler).ReceiveCtx"}

// framesBelowVerb walks raw return PCs (pcs[0] in the actor method) and
// counts the physical frames up to, not including, the one running a
// verb. Inlined calls share their physical frame's entry, so a change of
// entry is a new frame.
func framesBelowVerb(pcs []uintptr) (verb string, n int) {
	var entry uintptr
	for _, pc := range pcs {
		f := runtime.FuncForPC(pc - 1)
		if f == nil {
			continue
		}
		for _, v := range switchVerbs {
			if strings.HasSuffix(f.Name(), v) {
				return v, n
			}
		}
		if e := f.Entry(); e != entry {
			entry, n = e, n+1
		}
	}
	return "", n
}

// depthActor is a concurrent Actor over counting semaphores made of
// buffered channels; its switch points record their frame depth.
type depthActor struct {
	sems []chan struct{}

	mu    sync.Mutex
	depth map[string]int // "verb method" -> deepest count seen
	lost  []string       // switch points reached under no verb
}

func newDepthActor(nsems int) *depthActor {
	a := &depthActor{depth: map[string]int{}}
	for range nsems {
		a.sems = append(a.sems, make(chan struct{}, 64))
	}
	return a
}

func (a *depthActor) record(method string) {
	var pcs [64]uintptr
	n := runtime.Callers(2, pcs[:]) // pcs[0] is in the actor method
	verb, d := framesBelowVerb(pcs[:n])
	a.mu.Lock()
	defer a.mu.Unlock()
	if verb == "" {
		a.lost = append(a.lost, method)
		return
	}
	key := verb + " " + method
	a.depth[key] = max(a.depth[key], d)
}

func (a *depthActor) Yield()                              { runtime.Gosched() }
func (a *depthActor) BusyWait()                           { runtime.Gosched() }
func (a *depthActor) Handoff(int)                         { runtime.Gosched() }
func (a *depthActor) SleepCtx(context.Context, int) error { return nil }
func (a *depthActor) V(id SemID)                          { a.sems[id] <- struct{}{} }

func (a *depthActor) PollDelay() {
	a.record("PollDelay")
	runtime.Gosched()
}

func (a *depthActor) P(id SemID) {
	a.record("P")
	<-a.sems[id]
}

func (a *depthActor) PCtx(ctx context.Context, id SemID) error {
	a.record("PCtx")
	select {
	case <-a.sems[id]:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (a *depthActor) Grant(id SemID) {
	a.record("Grant")
	a.V(id)
}

// lockedPort is a goroutine-safe Port over a mutex-guarded slice.
type lockedPort struct {
	mu    sync.Mutex
	msgs  []Msg
	awake atomic.Bool
	sem   SemID
}

func newLockedPort(sem SemID) *lockedPort {
	p := &lockedPort{sem: sem}
	p.awake.Store(true)
	return p
}

func (p *lockedPort) TryEnqueue(m Msg) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.msgs = append(p.msgs, m)
	return true
}

func (p *lockedPort) TryDequeue() (Msg, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.msgs) == 0 {
		return Msg{}, false
	}
	m := p.msgs[0]
	p.msgs = p.msgs[1:]
	return m, true
}

func (p *lockedPort) Empty() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.msgs) == 0
}

func (p *lockedPort) TryEnqueueBatch(ms []Msg) int  { return EnqueueEach(p, ms) }
func (p *lockedPort) TryDequeueBatch(dst []Msg) int { return DequeueEach(p, dst) }
func (p *lockedPort) Depth() int                    { return 0 }
func (p *lockedPort) SetAwake(v bool)               { p.awake.Store(v) }
func (p *lockedPort) TASAwake() bool                { return p.awake.Swap(true) }
func (p *lockedPort) ClaimWake() bool               { return !p.TASAwake() }
func (p *lockedPort) Sem() SemID                    { return p.sem }
func (p *lockedPort) Refusing() bool                { return false }
func (p *lockedPort) Closed() bool                  { return false }
func (p *lockedPort) PeerDead() bool                { return false }

// TestSwitchDepth runs BSLS and BSW round trips against a shared-queue
// Server and a DuplexHandler. The server replies after a pause, so the
// client spins and parks; the client pauses before its first request,
// so the server spins and parks too.
func TestSwitchDepth(t *testing.T) {
	const trips = 8
	for _, alg := range []Algorithm{BSLS, BSW} {
		for _, duplex := range []bool{false, true} {
			name, recv := alg.String()+"/server", ".(*Server).ReceiveCtx"
			if duplex {
				name, recv = alg.String()+"/duplex", ".(*DuplexHandler).ReceiveCtx"
			}
			t.Run(name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				a := newDepthActor(2)
				req, rep := newLockedPort(0), newLockedPort(1)
				cl := &Client{Alg: alg, Srv: req, Rcv: rep, A: a}
				var receive func() (Msg, error)
				var reply func(Msg) error
				if duplex {
					h := &DuplexHandler{Alg: alg, Rcv: req, Snd: rep, A: a}
					receive = func() (Msg, error) { return h.ReceiveCtx(ctx) }
					reply = func(m Msg) error { return h.ReplyCtx(ctx, m) }
				} else {
					s := &Server{Alg: alg, Rcv: req, Replies: []Port{rep}, A: a}
					receive = func() (Msg, error) { return s.ReceiveCtx(ctx) }
					reply = func(m Msg) error { return s.ReplyCtx(ctx, m.Client, m) }
				}
				errc := make(chan error, 1)
				go func() {
					for range trips {
						m, err := receive()
						if err == nil {
							time.Sleep(200 * time.Microsecond)
							err = reply(m)
						}
						if err != nil {
							errc <- err
							return
						}
					}
					errc <- nil
				}()
				time.Sleep(time.Millisecond)
				for i := range trips {
					if _, err := cl.SendCtx(ctx, Msg{Op: OpEcho, Val: float64(i)}); err != nil {
						t.Fatal(err)
					}
				}
				if err := <-errc; err != nil {
					t.Fatal(err)
				}

				a.mu.Lock()
				defer a.mu.Unlock()
				if len(a.lost) > 0 {
					t.Fatalf("switch points under no verb: %v", a.lost)
				}
				want := []string{".(*Client).SendCtx Grant", ".(*Client).SendCtx PCtx", recv + " PCtx"}
				if alg == BSLS {
					want = append(want, ".(*Client).SendCtx PollDelay", recv+" PollDelay")
				}
				for _, k := range want {
					if _, ok := a.depth[k]; !ok {
						t.Errorf("%s: never reached", k)
					}
				}
				for k, d := range a.depth {
					if d > maxSwitchDepth {
						t.Errorf("%s: %d physical frames below the verb, want at most %d", k, d, maxSwitchDepth)
					}
				}
				t.Logf("depths: %v", a.depth)
			})
		}
	}
}
