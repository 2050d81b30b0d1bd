package main

import (
	"context"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"ulipc"
)

// The payload workload re-executes the running binary as its server;
// under go test that binary is this one.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == childServer {
		os.Exit(xprocServerMain())
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(ms []manifestMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	slices.Sort(out)
	return out
}

func emitted(ms []metric) []string {
	var out []string
	for _, m := range ms {
		if !m.printOnly {
			out = append(out, m.name)
		}
	}
	slices.Sort(out)
	return out
}

// Every name BENCHMARK.json declares is well formed, and a two-window
// smoke run of each workload emits exactly the declared names, with the
// declared units, for both modes — and not one failed operation. No
// timing is asserted.
func TestSmokeRunEmitsTheManifest(t *testing.T) {
	man, err := readManifest("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	units := make(map[string]string)
	for _, m := range append(slices.Clone(man.EndToEnd), man.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
		if _, dup := units[m.Name]; dup {
			t.Errorf("metric name %q declared twice", m.Name)
		}
		units[m.Name] = m.Unit
	}
	var declared []string
	for _, w := range man.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is not [A-Za-z0-9_.-]+", w.Name)
		}
		declared = append(declared, w.Name)
	}
	var have []string
	for _, w := range specs {
		have = append(have, w.name)
	}
	if !slices.Equal(declared, have) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", declared, have)
	}

	o := options{seed: 7, seconds: 1, windows: 2}
	for _, w := range specs {
		t.Run(w.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			in := newInputs(o.seed)
			for _, mode := range []struct {
				name string
				run  func(context.Context, *spec, *inputs, options) ([]metric, int64, int64, error)
				want []string
			}{
				{"end_to_end", endToEnd, names(man.EndToEnd)},
				{"per_layer", perLayer, names(man.PerLayer)},
			} {
				ms, attempted, failed, err := mode.run(ctx, w, in, o)
				if err != nil {
					t.Fatalf("%s: %v", mode.name, err)
				}
				if failed != 0 || attempted < coldStartMsgs {
					t.Errorf("%s: %d of %d operations failed", mode.name, failed, attempted)
				}
				if got := emitted(ms); !slices.Equal(got, mode.want) {
					t.Errorf("%s emitted\n%v\nBENCHMARK.json declares\n%v", mode.name, got, mode.want)
				}
				for _, m := range ms {
					if u, ok := units[m.name]; ok && !m.printOnly && u != m.unit {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.name, m.unit, u)
					}
				}
			}
		})
	}
}

// The failure path: a server that answers one request wrongly costs
// exactly one failed operation, and the run goes on.
func TestWrongEchoCountsAsOneFailedOp(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sys, err := ulipc.NewSystem(ulipc.Options{Alg: ulipc.BSW, Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	done := make(chan error, 1)
	go func() {
		for {
			m, err := srv.ReceiveCtx(ctx)
			if err != nil {
				done <- ignoreShutdown(err)
				return
			}
			if m.Seq == 7 {
				m.Val++
			}
			if err := srv.ReplyCtx(ctx, m.Client, m); err != nil {
				done <- ignoreShutdown(err)
				return
			}
		}
	}()
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	call := inprocCall(ctx, specByName("up_handoff"), newInputs(1), cl, 0, nil)
	if failed := runClient(call, 20, nil); failed != 1 {
		t.Errorf("20 calls against a server that corrupts one reply: %d failed, want 1", failed)
	}
	if err := sys.Shutdown(ctx); err != nil {
		t.Error(err)
	}
	if err := <-done; err != nil {
		t.Error(err)
	}
}

func TestPayloadCheckCatchesWhatTheServerMustDo(t *testing.T) {
	in := newInputs(3)
	for seq := int32(0); seq < 64; seq++ {
		sent := in.payload(seq)
		got := slices.Clone(sent)
		if payloadOK(got, sent, seq) {
			t.Fatalf("seq %d: an unmutated payload passed", seq)
		}
		mutatePayload(got, seq)
		if !payloadOK(got, sent, seq) {
			t.Fatalf("seq %d: the server's own mutation failed the check", seq)
		}
		if payloadOK(got, sent, seq+1) {
			t.Fatalf("seq %d: a payload stamped for another request passed", seq)
		}
		if payloadOK(got[:len(got)-8], sent, seq) {
			t.Fatalf("seq %d: a short payload passed", seq)
		}
		got[len(got)-1] ^= 1
		if payloadOK(got, sent, seq) {
			t.Fatalf("seq %d: a corrupted tail passed", seq)
		}
	}
}

// The same seed gives the same inputs, another seed others.
func TestInputsFollowTheSeed(t *testing.T) {
	a, b, c := newInputs(11), newInputs(11), newInputs(12)
	if a.vals != b.vals || a.sizes != b.sizes || !slices.Equal(a.fill, b.fill) {
		t.Error("the same seed gave different inputs")
	}
	if a.vals == c.vals || a.sizes == c.sizes || slices.Equal(a.fill, c.fill) {
		t.Error("another seed gave the same inputs")
	}
	for _, n := range a.sizes {
		if !slices.Contains(payloadSizes[:], n) {
			t.Fatalf("payload size %d is not one of %v", n, payloadSizes)
		}
	}
}
