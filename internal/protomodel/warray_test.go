package protomodel

import "testing"

// The waiting-array semaphore under the cancellable consumer wait must
// be deadlock-free (no lost wake-up), lose no messages, and leave at
// most one redundant credit on the count at quiescence — with and
// without cancellations striking parked waits.
func TestWArrayNoLostWakeup(t *testing.T) {
	for producers := 1; producers <= 3; producers++ {
		for msgs := 1; msgs <= 3; msgs++ {
			for _, cancels := range []int{0, 1, 2} {
				res, err := WArrayCheck(WArrayConfig{Producers: producers, Msgs: msgs, MaxCancels: cancels})
				if err != nil {
					t.Fatal(err)
				}
				tag := func() string {
					return "producers=" + itoa(producers) + " msgs=" + itoa(msgs) + " cancels=" + itoa(cancels)
				}
				if res.Deadlock {
					t.Errorf("%s: deadlock; one path:\n%s", tag(), pathString(res.DeadlockPath))
				}
				if !res.AllConsumed {
					t.Errorf("%s: some terminal state lost a message", tag())
				}
				if res.TermSemMax > 1 {
					t.Errorf("%s: %d semaphore credits at quiescence, want <= 1", tag(), res.TermSemMax)
				}
				if cancels > 0 && producers >= 2 && !res.Cancelled {
					t.Errorf("%s: no explored path exercised a cancellation", tag())
				}
			}
		}
	}
}

// The cancel budget must actually drive the expiry path: a run with
// cancels explores cancellations and more states than the cancel-free
// run, which explores none.
func TestWArrayCancelExpandsStateSpace(t *testing.T) {
	base, err := WArrayCheck(WArrayConfig{Producers: 2, Msgs: 2})
	if err != nil {
		t.Fatal(err)
	}
	cxl, err := WArrayCheck(WArrayConfig{Producers: 2, Msgs: 2, MaxCancels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !cxl.Cancelled {
		t.Fatal("cancel-enabled run explored no cancellation")
	}
	if cxl.States <= base.States {
		t.Fatalf("cancel-enabled run explored %d states, base %d — cancels added nothing", cxl.States, base.States)
	}
	if base.Cancelled {
		t.Fatal("cancel-free run reported a cancellation")
	}
}

func TestWArrayConfigValidation(t *testing.T) {
	bad := []WArrayConfig{
		{Producers: 0, Msgs: 1},
		{Producers: 4, Msgs: 1},
		{Producers: 1, Msgs: 0},
		{Producers: 1, Msgs: 5},
		{Producers: 1, Msgs: 1, MaxCancels: -1},
		{Producers: 1, Msgs: 1, MaxCancels: 5},
	}
	for _, cfg := range bad {
		if _, err := WArrayCheck(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func itoa(n int) string {
	return string(rune('0' + n))
}

func pathString(path []string) string {
	out := ""
	for _, s := range path {
		out += "  " + s + "\n"
	}
	return out
}
