package livebind

import (
	"context"
	"errors"
	"testing"

	"ulipc/internal/core"
)

// Exhausting the slab arena surfaces as ErrBlocksExhausted, counted in
// BlockFails, and releasing every payload returns every block.
func TestNoFallbackStillFailsExhaustion(t *testing.T) {
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 1, BlockSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown(context.Background())
	cl, err := sys.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	var pays []*core.Payload
	for {
		p, err := cl.AllocPayload(64)
		if err != nil {
			if !errors.Is(err, core.ErrBlocksExhausted) {
				t.Fatalf("exhaustion error = %v, want ErrBlocksExhausted", err)
			}
			break
		}
		pays = append(pays, p)
		if len(pays) > 1024 {
			t.Fatal("arena never exhausted")
		}
	}
	if got := cl.M.BlockFails.Load(); got != 1 {
		t.Errorf("BlockFails = %d, want 1 (the failed allocation)", got)
	}
	for _, p := range pays {
		p.Release()
	}
	if free := sys.Blocks().TotalFree(); free != int64(sys.Blocks().Capacity()) {
		t.Errorf("arena free %d / %d after releasing everything", free, sys.Blocks().Capacity())
	}
}

// ---- admission option validation ----

func TestAdmissionValidation(t *testing.T) {
	base := func() Options { return Options{Alg: core.BSW, Clients: 1} }
	for _, tc := range []struct {
		name string
		mut  func(*Options)
	}{
		{"negative high water", func(o *Options) { o.Admission.HighWater = -1 }},
		{"negative retry cap", func(o *Options) { o.Admission.RetryCap = -1 }},
	} {
		o := base()
		tc.mut(&o)
		if _, err := NewSystem(o); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: err = %v, want ErrBadOption", tc.name, err)
		}
	}
}

// A system with admission configured hands every client handle the
// high-water mark and a private retry budget; one without hands out
// neither (the zero-cost default).
func TestAdmissionPlumbedToClients(t *testing.T) {
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: 2, Admission: Admission{HighWater: 32, RetryCap: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown(context.Background())
	c0, _ := sys.Client(0)
	c1, _ := sys.Client(1)
	if c0.HighWater != 32 || c1.HighWater != 32 {
		t.Errorf("HighWater = %d/%d, want 32/32", c0.HighWater, c1.HighWater)
	}
	if c0.Budget == nil || c1.Budget == nil {
		t.Fatal("retry budget not plumbed")
	}
	if c0.Budget == c1.Budget {
		t.Error("clients share one retry budget; it must be per handle")
	}
	if c0.Budget.Cap != 16 || c0.Budget.Refill != 0.1 {
		t.Errorf("budget = %+v, want Cap 16 Refill 0.1", c0.Budget)
	}

	open, err := NewSystem(Options{Alg: core.BSW, Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer open.Shutdown(context.Background())
	cl, _ := open.Client(0)
	if cl.HighWater != 0 || cl.Budget != nil {
		t.Errorf("open system client got HighWater %d Budget %v", cl.HighWater, cl.Budget)
	}
}
