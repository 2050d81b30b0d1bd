package livebind

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/metrics"
	"ulipc/internal/obs"
)

// driveEcho runs one client against the system's server for msgs echo
// round trips, completing the full connect/disconnect protocol.
func driveEcho(t *testing.T, sys *System, msgs int) {
	t.Helper()
	srv := sys.Server()
	done := make(chan int64, 1)
	go func() { done <- srv.Serve(nil) }()
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	if ans := cl.Send(core.Msg{Op: core.OpConnect}); ans.Op != core.OpConnect {
		t.Fatalf("bad connect reply %+v", ans)
	}
	for j := 0; j < msgs; j++ {
		ans := cl.Send(core.Msg{Op: core.OpEcho, Seq: int32(j), Val: float64(j)})
		if ans.Seq != int32(j) {
			t.Fatalf("reply mismatch at %d: %+v", j, ans)
		}
	}
	cl.Send(core.Msg{Op: core.OpDisconnect})
	if served := <-done; served != int64(msgs) {
		t.Fatalf("served %d, want %d", served, msgs)
	}
}

// TestObservedSystemFillsHistograms drives a BSW system (every wait
// blocks, so the sleep phase must appear) and checks the full
// observability surface: histograms, counters, MetricsV2, Prometheus
// text, and the flight recorder.
func TestObservedSystemFillsHistograms(t *testing.T) {
	const msgs = 50
	ms := metrics.NewSet()
	ob := obs.New(obs.Config{RecorderCap: 256})
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, Metrics: ms, Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Observer() != ob {
		t.Fatal("Observer() accessor lost the observer")
	}
	driveEcho(t, sys, msgs)

	snaps := ob.Snapshot()
	var bsw *obs.ProtoSnapshot
	for i := range snaps {
		if snaps[i].Proto == "BSW" {
			bsw = &snaps[i]
		} else if snaps[i].RTT.Count != 0 {
			t.Errorf("protocol %s has %d RTTs in a BSW-only run", snaps[i].Proto, snaps[i].RTT.Count)
		}
	}
	if bsw == nil {
		t.Fatal("no BSW snapshot")
	}
	// connect + echoes + disconnect, one RTT each.
	if want := uint64(msgs + 2); bsw.RTT.Count != want {
		t.Fatalf("RTT count = %d, want %d", bsw.RTT.Count, want)
	}
	if bsw.RTT.Max == 0 || bsw.RTT.Sum == 0 {
		t.Fatalf("RTT histogram empty: %+v", bsw.RTT)
	}
	// BSW blocks on every empty-queue wait; the sleep phase must have
	// observations and the Blocks counter must agree with them being real.
	if bsw.Sleep.Count == 0 {
		t.Fatal("BSW run recorded no sleep phases")
	}
	total := ms.Total()
	if total.Blocks == 0 {
		t.Fatal("Blocks counter stayed zero in a BSW run")
	}
	if total.Wakeups == 0 {
		t.Fatal("Wakeups counter stayed zero in a BSW run")
	}

	// MetricsV2 carries the same histograms alongside the counters.
	v2 := sys.MetricsV2()
	if len(v2.Protos) == 0 {
		t.Fatal("MetricsV2 snapshot has no protocol histograms")
	}
	if v2.Total.MsgsSent == 0 {
		t.Fatal("MetricsV2 total counters empty")
	}

	// Prometheus exposition: histogram series plus the counter families.
	var b strings.Builder
	sys.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`ulipc_rtt_ns_count{proto="BSW"}`,
		`ulipc_sleep_ns_count{proto="BSW"}`,
		"ulipc_msgs_sent_total",
		"ulipc_blocks_total",
		"ulipc_wakeups_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}

	// Flight recorder saw the traffic; the dump resolves actor names.
	if ob.Recorder().Len() == 0 {
		t.Fatal("flight recorder empty")
	}
	b.Reset()
	sys.DumpFlightRecorder(&b)
	for _, want := range []string{"flight recorder:", "send", "client0"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("dump missing %q:\n%s", want, b.String())
		}
	}
}

// TestReplyPayloadCtxRecordsPayload: a payload reply sent through
// Server.ReplyPayloadCtx lands in the observed server's Payload
// histogram, once.
func TestReplyPayloadCtxRecordsPayload(t *testing.T) {
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, BlockSlots: 4}, WithHistograms())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	srv := sys.Server()
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SendAsyncCtx(ctx, core.Msg{Op: core.OpEcho}); err != nil {
		t.Fatal(err)
	}
	m, err := srv.ReceiveCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p, err := srv.AllocPayload(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ReplyPayloadCtx(ctx, m.Client, m, p); err != nil {
		t.Fatal(err)
	}
	r, err := cl.RecvReplyCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := cl.Payload(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Release(); err != nil {
		t.Fatal(err)
	}
	var payloads uint64
	for _, s := range sys.Observer().Snapshot() {
		payloads += s.Payload.Count
	}
	if payloads != 1 {
		t.Fatalf("Payload histogram count = %d, want 1 (the server's ReplyPayloadCtx)", payloads)
	}
}

// TestWithHistogramsOption exercises the WithHistograms functional
// option (histograms only, no recorder) on the spin-only protocol: BSS
// must never record a sleep phase.
func TestWithHistogramsOption(t *testing.T) {
	sys, err := NewSystem(Options{Alg: core.BSS, Clients: 1}, WithHistograms())
	if err != nil {
		t.Fatal(err)
	}
	ob := sys.Observer()
	if ob == nil {
		t.Fatal("WithHistograms attached no observer")
	}
	if ob.Recorder() != nil {
		t.Fatal("WithHistograms should not attach a flight recorder")
	}
	driveEcho(t, sys, 20)
	snaps := ob.Snapshot()
	for _, s := range snaps {
		if s.Proto == "BSS" {
			if s.RTT.Count != 22 {
				t.Fatalf("BSS RTT count = %d, want 22", s.RTT.Count)
			}
			if s.Sleep.Count != 0 {
				t.Fatalf("BSS recorded %d sleeps; both sides spin", s.Sleep.Count)
			}
		}
	}
	var b strings.Builder
	sys.DumpFlightRecorder(&b) // no recorder: silent no-op
	if b.Len() != 0 {
		t.Fatalf("dump without recorder wrote %q", b.String())
	}
}

// TestUnobservedSystemStaysBare: no observer means no histograms
// anywhere, while the counter surface still works.
func TestUnobservedSystemStaysBare(t *testing.T) {
	ms := metrics.NewSet()
	sys, err := NewSystem(Options{Alg: core.BSLS, Clients: 1, Metrics: ms})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Observer() != nil {
		t.Fatal("unconfigured system has an observer")
	}
	driveEcho(t, sys, 20)
	v2 := sys.MetricsV2()
	if len(v2.Protos) != 0 {
		t.Fatalf("bare system snapshot carries histograms: %+v", v2.Protos)
	}
	if v2.Total.MsgsSent == 0 {
		t.Fatal("counters missing from bare snapshot")
	}
	var b strings.Builder
	sys.WritePrometheus(&b)
	if !strings.Contains(b.String(), "ulipc_msgs_sent_total") {
		t.Fatal("bare system prometheus output missing counters")
	}
	if strings.Contains(b.String(), "ulipc_rtt_ns") {
		t.Fatal("bare system prometheus output has histogram series")
	}
}

// TestObservedSleepAttribution pins the sleep phase on the one Actor
// over both semaphore backends and both verbs: a P that finds a token
// records no sleep and no EvBlock; one that parks records exactly one
// of each, with a positive duration.
func TestObservedSleepAttribution(t *testing.T) {
	kinds := []struct {
		name  string
		build func(t *testing.T, h obs.Hook) (a core.Actor, parked func() bool)
	}{
		{"Actor", func(t *testing.T, h obs.Hook) (core.Actor, func() bool) {
			s := NewSemaphore(0)
			return &Actor{sems: []actorSem{s}, Obs: h},
				func() bool { return int64(s.Waiters())+s.Sleeping() == 1 }
		}},
		{"ProcSem", func(t *testing.T, h obs.Hook) (core.Actor, func() bool) {
			s := newTestSem(t)
			return &Actor{sems: []actorSem{s}, proc: true, Obs: h},
				func() bool { return s.Waiters() == 1 }
		}},
	}
	verbs := []struct {
		name string
		p    func(a core.Actor) error
	}{
		{"P", func(a core.Actor) error { a.P(0); return nil }},
		{"PCtx", func(a core.Actor) error { return a.PCtx(context.Background(), 0) }},
	}
	for _, k := range kinds {
		for _, v := range verbs {
			for _, park := range []bool{false, true} {
				name := k.name + "/" + v.name + "/token"
				if park {
					name = k.name + "/" + v.name + "/park"
				}
				t.Run(name, func(t *testing.T) {
					ob := obs.New(obs.Config{RecorderCap: 64})
					a, parked := k.build(t, ob.Hook(int(core.BSW), ob.RegisterActor("a")))
					if !park {
						a.V(0)
						if err := v.p(a); err != nil {
							t.Fatal(err)
						}
					} else {
						done := make(chan error, 1)
						go func() { done <- v.p(a) }()
						for deadline := time.Now().Add(5 * time.Second); !parked(); runtime.Gosched() {
							if time.Now().After(deadline) {
								t.Fatal("the waiter never parked")
							}
						}
						a.V(0)
						if err := <-done; err != nil {
							t.Fatal(err)
						}
					}
					sleep := ob.Proto(int(core.BSW)).Sleep.Snapshot()
					var blocks []obs.Event
					for _, e := range ob.Recorder().Snapshot() {
						if e.Kind == obs.EvBlock {
							blocks = append(blocks, e)
						}
					}
					want := uint64(0)
					if park {
						want = 1
					}
					if sleep.Count != want || uint64(len(blocks)) != want {
						t.Fatalf("%d sleep observations and %d EvBlock events, want %d of each", sleep.Count, len(blocks), want)
					}
					if park && (sleep.Sum == 0 || blocks[0].Arg <= 0) {
						t.Fatalf("parked duration %d ns, EvBlock arg %d, want both positive", sleep.Sum, blocks[0].Arg)
					}
				})
			}
		}
	}
}
