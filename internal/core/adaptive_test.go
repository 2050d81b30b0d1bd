package core

import (
	"context"
	"testing"
	"time"

	"ulipc/internal/obs"
)

func TestTunerDefaults(t *testing.T) {
	tn := NewTuner(TunerConfig{})
	if got := tn.Budget(); got != DefaultMaxSpin {
		t.Fatalf("initial budget %d, want the paper's MAX_SPIN %d", got, DefaultMaxSpin)
	}
	if d := tn.NapScale(time.Millisecond); d != time.Millisecond {
		t.Fatalf("idle nap scale changed the nap: %v", d)
	}
}

func TestTunerTracksArrivalLag(t *testing.T) {
	tn := NewTuner(TunerConfig{})
	// Replies consistently land after 100 polls: the budget must grow
	// toward ~2x the arrival lag so those waits never park.
	for i := 0; i < 200; i++ {
		tn.Observe(100, false)
	}
	if got := tn.Budget(); got < 150 || got > 250 {
		t.Fatalf("budget %d after steady 100-poll arrivals, want ~200", got)
	}
	// Arrivals speed up to 5 polls: the budget must shrink back down.
	for i := 0; i < 200; i++ {
		tn.Observe(5, false)
	}
	if got := tn.Budget(); got < DefaultSpinMin || got > 20 {
		t.Fatalf("budget %d after steady 5-poll arrivals, want ~11", got)
	}
	s := tn.Snapshot()
	if s.Grows == 0 || s.Shrinks == 0 {
		t.Fatalf("decision counters did not move: %+v", s)
	}
	if s.Polls != 400 {
		t.Fatalf("polls %d, want 400", s.Polls)
	}
}

func TestTunerOversubscriptionBackoff(t *testing.T) {
	tn := NewTuner(TunerConfig{Initial: 256})
	// Every wait falls through — the oversubscription signature. The
	// budget must collapse toward the floor and the naps must stretch.
	for i := 0; i < 100; i++ {
		tn.Observe(256, true)
	}
	if got := tn.Budget(); got != DefaultSpinMin {
		t.Fatalf("budget %d under sustained fall-through, want floor %d", got, DefaultSpinMin)
	}
	s := tn.Snapshot()
	if s.Backoffs == 0 {
		t.Fatalf("no backoffs recorded: %+v", s)
	}
	if s.FallThrus != 100 {
		t.Fatalf("fall-thrus %d, want 100", s.FallThrus)
	}
	if d := tn.NapScale(time.Millisecond); d != 4*time.Millisecond {
		t.Fatalf("nap scale %v under backoff, want 4x", d)
	}
	// Pressure lifts: the nap scale must relax back to 1x and the
	// budget must recover toward the new arrival lag.
	for i := 0; i < 200; i++ {
		tn.Observe(10, false)
	}
	if d := tn.NapScale(time.Millisecond); d != time.Millisecond {
		t.Fatalf("nap scale %v after recovery, want 1x", d)
	}
	if got := tn.Budget(); got < 10 || got > 40 {
		t.Fatalf("budget %d after recovery at 10-poll arrivals, want ~21", got)
	}
}

func TestTunerClamps(t *testing.T) {
	tn := NewTuner(TunerConfig{Initial: 10000, Min: 4, Max: 64})
	if got := tn.Budget(); got != 64 {
		t.Fatalf("initial budget %d, want clamp to 64", got)
	}
	for i := 0; i < 100; i++ {
		tn.Observe(10000, false)
	}
	if got := tn.Budget(); got != 64 {
		t.Fatalf("budget %d, want ceiling 64", got)
	}
	for i := 0; i < 100; i++ {
		tn.Observe(0, true)
	}
	if got := tn.Budget(); got != 4 {
		t.Fatalf("budget %d, want floor 4", got)
	}
}

func TestTunerSnapshotJSONStable(t *testing.T) {
	tn := NewTuner(TunerConfig{})
	tn.Observe(3, false)
	s := tn.Snapshot()
	if s.Budget != int64(tn.Budget()) || s.Polls != 1 {
		t.Fatalf("snapshot out of sync: %+v", s)
	}
}

// BSA's fall-through predicate must be exact: an arrival on
// the last budgeted poll is a successful spin, not a sleep.
type scriptedQueue struct {
	*fakePort
	emptyFor int
}

func (q *scriptedQueue) Empty() bool {
	if q.emptyFor > 0 {
		q.emptyFor--
		return true
	}
	return false
}

func TestAdaptiveSpinExactFallThrough(t *testing.T) {
	tn := NewTuner(TunerConfig{Initial: 8, Min: 2, Max: 512})
	a := &fakeActor{}
	// The scripted spin ends with the message the leg then takes.
	spin := func(emptyFor int) {
		t.Helper()
		q := &scriptedQueue{fakePort: newFakePort(0, 1), emptyFor: emptyFor}
		q.TryEnqueue(Msg{Val: 1})
		if m, err := receiveLeg(context.Background(), BSA, 0, &tn, q, a, nil, obs.Hook{}, legHint{}); err != nil || m.Val != 1 {
			t.Fatalf("got %+v, %v", m, err)
		}
	}
	// Arrival exactly when the budget expires: Empty() true for the
	// whole loop, false immediately after — a success, not a sleep.
	spin(tn.Budget())
	if got := tn.FallThrus.Load(); got != 0 {
		t.Fatalf("last-poll arrival counted as fall-through")
	}
	// Queue still empty after the loop: a genuine fall-through.
	spin(1 << 30)
	if got := tn.FallThrus.Load(); got != 1 {
		t.Fatalf("fall-thrus %d after an expired wait, want 1", got)
	}
}
