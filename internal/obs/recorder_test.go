package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRecorderWraparound(t *testing.T) {
	r := NewFlightRecorder(64)
	if r.Cap() != 64 {
		t.Fatalf("cap = %d, want 64", r.Cap())
	}
	// Fill the ring twice plus a bit: only the newest 64 events survive.
	const total = 64*2 + 10
	for i := 1; i <= total; i++ {
		r.Note(EvSend, 0, int64(i))
	}
	if r.Len() != total {
		t.Fatalf("len = %d, want %d", r.Len(), total)
	}
	evs := r.Snapshot()
	if len(evs) != 64 {
		t.Fatalf("held %d events, want 64", len(evs))
	}
	// Sequence order, contiguous, and exactly the newest window.
	for i, e := range evs {
		wantSeq := uint64(total - 64 + 1 + i)
		if e.Seq != wantSeq {
			t.Fatalf("event %d: seq = %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Arg != int64(wantSeq) {
			t.Fatalf("event %d: arg = %d, want %d", i, e.Arg, wantSeq)
		}
		if e.Kind != EvSend {
			t.Fatalf("event %d: kind = %v", i, e.Kind)
		}
	}
}

func TestRecorderCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{1, 64}, {64, 64}, {65, 128}, {1000, 1024},
	} {
		if got := NewFlightRecorder(tc.ask).Cap(); got != tc.want {
			t.Errorf("cap(%d) = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestRecorderConcurrent runs writers against concurrent snapshots; under
// -race this proves Note/Snapshot are clean, and the assertions check no
// snapshot ever yields a torn or duplicated event.
func TestRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(256)
	const writers = 4
	const per = 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			evs := r.Snapshot()
			seen := map[uint64]bool{}
			for _, e := range evs {
				if seen[e.Seq] {
					t.Errorf("duplicate seq %d in snapshot", e.Seq)
					return
				}
				seen[e.Seq] = true
				// Writers encode actor -> kind and arg consistently; a torn
				// slot read would break the relation.
				if e.Arg%int64(writers) != int64(e.Actor) {
					t.Errorf("torn event: actor %d with arg %d", e.Actor, e.Arg)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Note(EvWake, int32(w), int64(i*writers+w))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if r.Len() != writers*per {
		t.Fatalf("len = %d, want %d", r.Len(), writers*per)
	}
}

// TestRecorderNoteAllocFree: the slot claim keeps Note off the heap.
func TestRecorderNoteAllocFree(t *testing.T) {
	r := NewFlightRecorder(64)
	if n := testing.AllocsPerRun(1000, func() { r.Note(EvWake, 1, 2) }); n != 0 {
		t.Fatalf("Note allocates %.1f times per call, want 0", n)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *FlightRecorder
	r.Note(EvSend, 0, 1) // must not panic
	if r.Len() != 0 || r.Cap() != 0 || r.Snapshot() != nil {
		t.Fatal("nil recorder should be inert")
	}
}

func TestObserverDump(t *testing.T) {
	o := New(Config{RecorderCap: 64})
	cli := o.RegisterActor("client0")
	srv := o.RegisterActor("server")
	h := o.Hook(0, cli)
	h.Note(EvSend, 7)
	o.Recorder().Note(EvWake, srv, 3)
	o.Recorder().Note(EvShutdown, -1, 2)

	var b strings.Builder
	o.Dump(&b)
	out := b.String()
	for _, want := range []string{"flight recorder:", "client0", "server", "send", "wake", "shutdown", "arg=7", "arg=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	// Unattributed events resolve to "?" rather than panicking.
	if !strings.Contains(out, "?") {
		t.Errorf("unattributed actor not rendered as ?:\n%s", out)
	}
}

func TestObserverDumpNoRecorder(t *testing.T) {
	o := New(Config{})
	var b strings.Builder
	o.Dump(&b) // no recorder attached: a silent no-op
	if b.Len() != 0 {
		t.Fatalf("dump without recorder wrote %q", b.String())
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvSend, EvRecv, EvBlock, EvWake, EvRetry, EvCancel, EvTimeout, EvShutdown}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "ev(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if got := EventKind(200).String(); !strings.HasPrefix(got, "ev(") {
		t.Errorf("unknown kind = %q", got)
	}
}
