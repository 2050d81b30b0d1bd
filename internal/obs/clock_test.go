package obs

import (
	"sync"
	"testing"
	"time"
)

// Now is one monotonic timebase: on every goroutine, a later stamp is
// never smaller than an earlier one, a stamp is always positive (0 is
// the "no stamp" value), and Since a fresh stamp is never negative.
func TestNowMonotonic(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := Now()
			for i := 0; i < 20_000; i++ {
				now := Now()
				if now <= 0 {
					t.Errorf("Now() = %d, want > 0", now)
					return
				}
				if now < prev {
					t.Errorf("Now went backwards: %d after %d", now, prev)
					return
				}
				if d := Since(now); d < 0 {
					t.Errorf("Since(Now()) = %v, want >= 0", d)
					return
				}
				prev = now
			}
		}()
	}
	wg.Wait()
}

// Since measures what time.Since would: a sleep of 2ms reads as at
// least 2ms on the obs timebase.
func TestSinceMeasuresElapsed(t *testing.T) {
	t0 := Now()
	time.Sleep(2 * time.Millisecond)
	if d := Since(t0); d < 2*time.Millisecond {
		t.Fatalf("Since after a 2ms sleep = %v", d)
	}
}

// The disabled hook stamps 0 and Slept records nothing; an enabled
// hook's Slept lands one sleep observation and one EvBlock whose arg
// is the recorded duration.
func TestHookStampSlept(t *testing.T) {
	var off Hook
	if s := off.Stamp(); s != 0 {
		t.Fatalf("disabled Stamp = %d, want 0", s)
	}
	off.Slept(0) // must not panic or record

	o := New(Config{RecorderCap: 64})
	h := o.Hook(0, o.RegisterActor("a"))
	t0 := h.Stamp()
	if t0 <= 0 {
		t.Fatalf("enabled Stamp = %d, want > 0", t0)
	}
	time.Sleep(time.Millisecond)
	h.Slept(t0)
	s := h.H.Sleep.Snapshot()
	if s.Count != 1 || s.Sum < uint64(time.Millisecond) {
		t.Fatalf("sleep histogram %+v, want one observation >= 1ms", s)
	}
	evs := o.Recorder().Snapshot()
	if len(evs) != 1 || evs[0].Kind != EvBlock || evs[0].Arg != int64(s.Sum) {
		t.Fatalf("recorder %+v, want one EvBlock of %d ns", evs, s.Sum)
	}
}

// The benchmarks price a phase boundary on the host they run on:
// go test -bench . ./internal/obs

var sinkDur time.Duration // keeps the measured reads live

// BenchmarkStampPair is one timed phase on the obs timebase: a Now to
// open it and a Since to close it, two monotonic clock reads.
func BenchmarkStampPair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t0 := Now()
		sinkDur = Since(t0)
	}
}

// BenchmarkTimeNowSince is the baseline StampPair is priced against:
// the same phase timed with time.Now (a wall and a monotonic read) and
// time.Since, three clock reads.
func BenchmarkTimeNowSince(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		sinkDur = time.Since(t0)
	}
}

// BenchmarkHookSleep is the whole cost of attributing one park: the
// Stamp before P and the Slept after it, with histograms and no
// recorder (what WithHistograms attaches).
func BenchmarkHookSleep(b *testing.B) {
	o := New(Config{})
	h := o.Hook(0, o.RegisterActor("bench"))
	for i := 0; i < b.N; i++ {
		h.Slept(h.Stamp())
	}
}
