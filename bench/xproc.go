package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"

	"ulipc"
	"ulipc/internal/metrics"
	"ulipc/internal/obs"
)

// The cross-process workload: this process is the client, a re-exec'd
// copy of this binary is the server, and a memfd segment inherited as
// fd 3 is all they share. Measured on one core both processes are
// confined to the same CPU — the paper's uniprocessor case with real
// address spaces: every busy-wait is a sched_yield that hands the
// processor to the peer.
const (
	childEnv      = "ULIPC_BENCH_CHILD"
	childTraceEnv = "ULIPC_BENCH_TRACE"
	childServer   = "xproc-server"
	segFD         = 3

	// opProbe asks the server child for one of its own readings (Seq
	// selects which), answered in Val. It rides the measured channel, so
	// the parent needs no second one; two probes per window are noise.
	opProbe int32 = 1000

	xprocBlocks = 64 // slots per size class; one lease is out at a time
)

// probeCPU asks for the child's process CPU; the kinds below it are the
// indices of counts.
const probeCPU int32 = numCounts

func probeReading(m *metrics.Proc, kind int32) int64 {
	if kind == probeCPU {
		return processCPU()
	}
	if kind < 0 || kind > probeCPU {
		return -1
	}
	return countsOf(m.Snapshot())[kind]
}

// xprocServerMain is the child: an explicit receive → mutate → reply
// loop over the inherited segment, until its client disconnects. A
// traced child records one serve span per request and writes them to
// stdout when it is done.
func xprocServerMain() int {
	runtime.GOMAXPROCS(1)
	fail := func(what string, err error) int {
		fmt.Fprintf(os.Stderr, "bench: xproc server: %s: %v\n", what, err)
		return 1
	}
	var tr *tracer
	if os.Getenv(childTraceEnv) != "" {
		tr = newTracer(procChild)
	}
	sb := tr.buf(tracedCalls(specByName("xproc_payload")))

	seg, err := ulipc.MapFDSeg(segFD)
	if err != nil {
		return fail("map inherited segment", err)
	}
	defer seg.Close()
	m := &metrics.Proc{Name: "server"}
	srv, err := ulipc.AttachProcServer(seg, ulipc.ProcOptions{Alg: ulipc.BSLS, M: m})
	if err != nil {
		return fail("attach", err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), watchdogMax)
	defer cancel()

	for done := false; !done; {
		msg, err := srv.ReceiveCtx(ctx)
		if err != nil {
			return fail("receive", err)
		}
		t0 := sb.now()
		switch msg.Op {
		case ulipc.OpDisconnect:
			done = true
			err = srv.ReplyCtx(ctx, msg.Client, msg)
		case ulipc.OpConnect:
			err = srv.ReplyCtx(ctx, msg.Client, msg)
		case opProbe:
			msg.Val = float64(probeReading(m, msg.Seq))
			err = srv.ReplyCtx(ctx, msg.Client, msg)
		default:
			// A payload lost on the way in goes back as a bare reply,
			// which the client counts as a failed operation.
			p, perr := srv.Payload(msg)
			if perr == nil {
				mutatePayload(p.Bytes(), msg.Seq)
			}
			err = srv.ReplyPayloadCtx(ctx, msg.Client, msg, p)
			sb.record(spanServe, msg.Client, msg.Seq, 1, t0)
		}
		if err != nil {
			return fail("reply", err)
		}
	}
	if err := tr.writeTo(os.Stdout); err != nil {
		return fail("write spans", err)
	}
	return 0
}

func startXproc(ctx context.Context, w *spec, in *inputs, tr *tracer, cores int) (_ *instance, err error) {
	runtime.GOMAXPROCS(1)
	// The server child inherits the confinement when it is started.
	if err := confine(cores); err != nil {
		return nil, err
	}
	seg, segFile, err := ulipc.CreateMemfdSeg("ulipc-bench", ulipc.SegConfig{Clients: 1, Blocks: xprocBlocks})
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	child := exec.Command(exe)
	child.Env = append(os.Environ(), childEnv+"="+childServer)
	if tr != nil {
		child.Env = append(child.Env, childTraceEnv+"=1")
	}
	child.ExtraFiles = []*os.File{segFile} // fd 3 in the child
	var childOut bytes.Buffer
	child.Stdout, child.Stderr = &childOut, os.Stderr
	if err := child.Start(); err != nil {
		return nil, fmt.Errorf("start server child: %w", err)
	}
	exited := make(chan error, 1) // the child's exit status once, then closed
	go func() { exited <- child.Wait(); close(exited) }()
	reap := func() {
		_ = child.Process.Kill()
		<-exited
		_ = seg.Close()
		_ = segFile.Close()
	}
	defer func() {
		if err != nil {
			reap()
		}
	}()

	m := &metrics.Proc{Name: "client"}
	opts := ulipc.ProcOptions{Alg: ulipc.BSLS, M: m}
	var ob *ulipc.Observer
	if tr != nil {
		ob = ulipc.NewObserver(ulipc.ObserverConfig{})
		opts.Obs = ob.Hook(int(ulipc.BSLS), ob.RegisterActor("client0"))
	}
	cl, err := ulipc.AttachProcClient(seg, 0, opts)
	if err != nil {
		return nil, err
	}
	if _, err := cl.SendCtx(ctx, ulipc.Msg{Op: ulipc.OpConnect}); err != nil {
		cl.Close()
		return nil, fmt.Errorf("connect: %w", err)
	}
	probe := func(kind int32) int64 {
		r, err := cl.SendCtx(ctx, ulipc.Msg{Op: opProbe, Seq: kind})
		if err != nil {
			return 0 // the failed send is counted where the next call fails too
		}
		return int64(r.Val)
	}
	view := cl.Sys.View()

	sb := tr.buf(4 * tracedCalls(w))
	var seq int32
	var payloadBytes int64
	call := func() int {
		m := in.msg(ulipc.OpWork, seq)
		want := in.payload(seq)
		seq++
		t0 := sb.now()
		p, err := cl.AllocPayload(len(want))
		if err != nil {
			return 1
		}
		t1 := sb.record(spanAlloc, 0, m.Seq, 1, t0)
		copy(p.Bytes(), want)
		t2 := sb.record(spanFill, 0, m.Seq, 1, t1)
		r, rp, err := cl.SendPayload(ctx, m, p)
		t3 := sb.record(spanSend, 0, m.Seq, 1, t2)
		if err != nil || rp == nil {
			return 1
		}
		ok := echoOK(m, r) && payloadOK(rp.Bytes(), want, m.Seq)
		if rp.Release() != nil {
			ok = false
		}
		sb.record(spanVerifyRelease, 0, m.Seq, 1, t3)
		payloadBytes += 2 * int64(len(want))
		return failedIf(!ok)
	}

	return &instance{
		calls: []func() int{call},
		counts: func() counts {
			c := countsOf(m.Snapshot())
			for kind := range c {
				c[kind] += probe(int32(kind))
			}
			for _, b := range view.Blocks.Stats() {
				c[cBlockFallbacks] += b.Fallbacks
				c[cBlockExhausts] += b.Exhausts
			}
			return c
		},
		cpuNS:        func() int64 { return processCPU() + probe(probeCPU) },
		payloadBytes: func() int64 { return payloadBytes },
		phases: func() []obs.ProtoSnapshot {
			if ob == nil {
				return nil
			}
			return ob.Snapshot()
		},
		stop: func() (failed int) {
			if _, err := cl.SendCtx(ctx, ulipc.Msg{Op: ulipc.OpDisconnect}); err != nil {
				failed++
			}
			// A child that outlives the disconnect by this long is hung.
			select {
			case err := <-exited:
				if err != nil {
					failed++
				}
			case <-time.After(5 * time.Second):
				failed++
			}
			cl.Close()
			// Lease and node audit: a clean run leaves both pools whole and
			// the post-mortem sweep with nothing to reclaim.
			if view.Pool.FreeCount() != int64(view.Config().Nodes) ||
				view.Blocks.TotalFree() != int64(view.Blocks.Capacity()) {
				failed++
			}
			if msgs, refs, blocks, err := view.Reclaim(); err != nil || msgs+refs+blocks != 0 {
				failed++
			}
			reap()
			if err := tr.readFrom(&childOut); err != nil {
				failed++
			}
			return failed
		},
	}, nil
}
