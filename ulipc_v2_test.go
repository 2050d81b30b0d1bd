package ulipc_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"ulipc"
)

// TestNewSystemTypedErrors pins the validation surface: configuration
// mistakes come back as errors.Is-matchable sentinels, not panics.
func TestNewSystemTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		opts ulipc.Options
		want error
	}{
		{"zero clients", ulipc.Options{Alg: ulipc.BSW}, ulipc.ErrBadClients},
		{"negative clients", ulipc.Options{Alg: ulipc.BSW, Clients: -3}, ulipc.ErrBadClients},
		{"spsc receive queue", ulipc.Options{Alg: ulipc.BSW, Clients: 1, QueueKind: ulipc.QueueSPSC}, ulipc.ErrSPSCTopology},
		{"negative cap", ulipc.Options{Alg: ulipc.BSW, Clients: 1, QueueCap: -1}, ulipc.ErrBadOption},
		{"unknown algorithm", ulipc.Options{Alg: 99, Clients: 1}, ulipc.ErrBadOption},
		{"bsa fixed maxspin", ulipc.Options{Alg: ulipc.BSA, Clients: 1, MaxSpin: 8}, ulipc.ErrBadTuning},
		{"bsa throttle", ulipc.Options{Alg: ulipc.BSA, Clients: 2, Throttle: 1}, ulipc.ErrBadTuning},
		{"shards mpmc replies", ulipc.Options{Alg: ulipc.BSW, Clients: 2, Shards: 2, MPMCReplies: true}, ulipc.ErrSPSCTopology},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ulipc.NewSystem(tc.opts); !errors.Is(err, tc.want) {
				t.Fatalf("NewSystem(%+v) = %v, want %v", tc.opts, err, tc.want)
			}
		})
	}
}

// TestFunctionalOptions checks that every knob is an Options field —
// the reply-channel kind included — and that WithHistograms, the one
// Option left, composes with the struct and its validation.
func TestFunctionalOptions(t *testing.T) {
	mpmc, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSW, Clients: 1, MPMCReplies: true})
	if err != nil {
		t.Fatal(err)
	}
	if k := mpmc.ReplyChannel(0).Kind(); k != ulipc.QueueRing {
		t.Fatalf("reply kind = %v, want %v", k, ulipc.QueueRing)
	}
	sys, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSLS, Clients: 2,
		MaxSpin: 7, SleepScale: time.Millisecond, AllocBatch: 4}, ulipc.WithHistograms())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Observer() == nil {
		t.Fatal("WithHistograms attached no observer")
	}
	// An option does not bypass validation of the struct it rides on.
	if _, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSW, Clients: 1, AllocBatch: -1},
		ulipc.WithHistograms()); !errors.Is(err, ulipc.ErrBadOption) {
		t.Fatalf("invalid field value = %v, want ErrBadOption", err)
	}
}

// TestPublicAPIv2Lifecycle is the documented v2 quick start, end to
// end: ServeCtx + SendCtx, then a graceful Shutdown after which sends
// fail fast with ErrShutdown.
func TestPublicAPIv2Lifecycle(t *testing.T) {
	sys, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSLS, Clients: 1, SleepScale: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	serverDone := make(chan error, 1)
	go func() {
		_, err := srv.ServeCtx(context.Background(), nil)
		serverDone <- err
	}()

	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.SendCtx(ctx, ulipc.Msg{Op: ulipc.OpConnect}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ans, err := cl.SendCtx(ctx, ulipc.Msg{Op: ulipc.OpEcho, Seq: int32(i), Val: float64(i)})
		if err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
		if ans.Val != float64(i) {
			t.Fatalf("echo %d: %+v", i, ans)
		}
	}
	if _, err := cl.SendCtx(ctx, ulipc.Msg{Op: ulipc.OpDisconnect}); err != nil {
		t.Fatal(err)
	}
	if err := <-serverDone; err != nil {
		t.Fatalf("server: %v", err)
	}

	shutCtx, shutCancel := context.WithTimeout(context.Background(), time.Second)
	defer shutCancel()
	if err := sys.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The handle completed a disconnect handshake, so it reports the
	// misuse sentinel; a fresh handle observes the shut-down system.
	if _, err := cl.SendCtx(ctx, ulipc.Msg{Op: ulipc.OpEcho}); !errors.Is(err, ulipc.ErrDisconnected) {
		t.Fatalf("send on disconnected handle = %v, want ErrDisconnected", err)
	}
	fresh, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.SendCtx(ctx, ulipc.Msg{Op: ulipc.OpEcho}); !errors.Is(err, ulipc.ErrShutdown) {
		t.Fatalf("send after shutdown = %v, want ErrShutdown", err)
	}
}

// TestPublicAPIShutdownUnblocksLegacySend covers the v1 interop rule:
// an error-less Send unblocked by Shutdown returns the OpShutdown
// marker message.
func TestPublicAPIShutdownUnblocksLegacySend(t *testing.T) {
	sys, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSW, Clients: 1, SleepScale: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan ulipc.Msg, 1)
	go func() {
		// No server: this parks waiting for a reply until Shutdown.
		done <- cl.Send(ulipc.Msg{Op: ulipc.OpEcho})
	}()
	time.Sleep(10 * time.Millisecond)
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer shutCancel()
	_ = sys.Shutdown(shutCtx) // returns DeadlineExceeded: the request never drains
	select {
	case m := <-done:
		if m.Op != ulipc.OpShutdown {
			t.Fatalf("unblocked Send returned %+v, want OpShutdown marker", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("legacy Send still parked after Shutdown")
	}
}
