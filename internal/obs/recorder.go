package obs

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
)

// EventKind classifies a flight-recorder event.
type EventKind uint8

// The recorded IPC event kinds.
const (
	EvNone     EventKind = iota
	EvSend               // client enqueued a request (arg: sequence number)
	EvRecv               // client received the matching reply (arg: sequence number)
	EvBlock              // a participant parked on a semaphore (arg: blocked ns)
	EvWake               // a V handed a token to (or signalled) a sleeper (arg: semaphore id)
	EvRetry              // producer found the queue full and backed off (arg: client id)
	EvCancel             // a cancellable wait ended by explicit cancel
	EvTimeout            // a cancellable wait ended by deadline expiry
	EvShutdown           // the system entered a shutdown phase (arg: phase 1..5)
	EvCrash              // an injected crash killed an actor (arg: fault point)
	EvPeerDead           // the sweeper declared an actor dead (arg: actor id)
	EvReclaim            // the sweeper reclaimed a lock or orphaned node (arg: count)
	EvRescue             // the sweeper issued a rescue V for a lost wake (arg: sem id)
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EvSend:
		return "send"
	case EvRecv:
		return "recv"
	case EvBlock:
		return "block"
	case EvWake:
		return "wake"
	case EvRetry:
		return "retry"
	case EvCancel:
		return "cancel"
	case EvTimeout:
		return "timeout"
	case EvShutdown:
		return "shutdown"
	case EvCrash:
		return "crash"
	case EvPeerDead:
		return "peer-dead"
	case EvReclaim:
		return "reclaim"
	case EvRescue:
		return "rescue"
	}
	return fmt.Sprintf("ev(%d)", uint8(k))
}

// Event is one recovered flight-recorder entry.
type Event struct {
	Seq    uint64 // global event sequence number (1-based)
	TimeNS int64  // nanoseconds since the recorder was created
	Kind   EventKind
	Actor  int32 // registered actor id (-1 if unattributed)
	Arg    int64 // kind-specific detail
}

// slotBusy marks a slot claimed by a writer.
const slotBusy = ^uint64(0)

// recSlot is one ring entry. Every field is an atomic so concurrent
// Note/Snapshot stay race-detector clean; the seq field doubles as a
// seqlock and a writer claim. A writer CASes it from the slot's last
// sequence number to slotBusy before writing the payload and publishes
// its own sequence number after, so a reader that observes the same
// published seq before and after reading the payload holds a consistent
// event.
type recSlot struct {
	seq  atomic.Uint64
	time atomic.Int64
	meta atomic.Uint64 // kind<<32 | uint32(actor)
	arg  atomic.Int64
}

// FlightRecorder is a bounded in-memory ring of recent IPC events,
// modeled on internal/trace's Recorder but safe for concurrent writers
// and allocation-free on the hot path: Note takes a sequence number
// with one atomic increment, claims its slot with one CAS and writes
// four atomic words. The ring keeps the most recent capacity events;
// older entries are overwritten. Intended use: attach via
// Config.RecorderCap, dump on a watchdog trip or SIGQUIT to see the
// final interleaving before a stall.
//
// Consistency: a slot being overwritten while Snapshot reads it is
// detected by the per-slot seqlock and skipped or retried. Two writers
// a full ring apart never share a slot: the one that finds it claimed
// by the other, or already holding a newer event, drops its own event
// (Len still counts it), so no slot mixes the words of two events.
type FlightRecorder struct {
	mask  uint64
	next  atomic.Uint64
	base  int64 // Now stamp at creation
	slots []recSlot
}

// NewFlightRecorder builds a recorder holding the most recent capacity
// events (rounded up to a power of two, minimum 64).
func NewFlightRecorder(capacity int) *FlightRecorder {
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &FlightRecorder{
		mask:  uint64(n - 1),
		base:  Now(),
		slots: make([]recSlot, n),
	}
}

// Note records one event. Nil-safe and allocation-free.
func (r *FlightRecorder) Note(k EventKind, actor int32, arg int64) {
	if r == nil {
		return
	}
	seq := r.next.Add(1)
	s := &r.slots[seq&r.mask]
	if old := s.seq.Load(); old == slotBusy || old > seq || !s.seq.CompareAndSwap(old, slotBusy) {
		return // another writer holds the slot, or a newer event has it
	}
	s.time.Store(Now() - r.base)
	s.meta.Store(uint64(k)<<32 | uint64(uint32(actor)))
	s.arg.Store(arg)
	s.seq.Store(seq)
}

// Len returns the total number of events ever noted (not the ring
// occupancy), a dropped one included.
func (r *FlightRecorder) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Cap returns the ring capacity.
func (r *FlightRecorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Snapshot returns the currently held events in sequence order. Safe
// to call concurrently with writers; slots being overwritten mid-read
// are skipped.
func (r *FlightRecorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		for attempt := 0; attempt < 3; attempt++ {
			s1 := s.seq.Load()
			if s1 == 0 || s1 == slotBusy {
				break // empty or being written right now
			}
			t := s.time.Load()
			m := s.meta.Load()
			a := s.arg.Load()
			if s.seq.Load() != s1 {
				continue // torn read: writer struck mid-copy, retry
			}
			out = append(out, Event{
				Seq:    s1,
				TimeNS: t,
				Kind:   EventKind(m >> 32),
				Actor:  int32(uint32(m)),
				Arg:    a,
			})
			break
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump renders the held events chronologically, one per line, in the
// same spirit as internal/trace.Recorder.Render. name resolves actor
// ids (nil prints raw ids).
func (r *FlightRecorder) Dump(w io.Writer, name func(int32) string) {
	if r == nil {
		return
	}
	evs := r.Snapshot()
	fmt.Fprintf(w, "flight recorder: %d events held (%d total, cap %d)\n",
		len(evs), r.Len(), r.Cap())
	for _, e := range evs {
		who := fmt.Sprintf("actor%d", e.Actor)
		if name != nil {
			who = name(e.Actor)
		}
		fmt.Fprintf(w, "%12.3fus %-10s %-8s arg=%d\n",
			float64(e.TimeNS)/1000, who, e.Kind, e.Arg)
	}
}

// Dump writes the observer's flight-recorder contents with actor names
// resolved; a no-op when no recorder is attached.
func (o *Observer) Dump(w io.Writer) {
	if o == nil || o.rec == nil {
		return
	}
	o.rec.Dump(w, o.ActorName)
}

// DumpOnSignal dumps the flight recorder (and a histogram summary) to
// stderr whenever one of the given signals arrives — SIGQUIT being the
// conventional choice, mirroring the Go runtime's own dump-on-SIGQUIT.
// Note that registering a handler stops the runtime's default
// kill-with-stacks behaviour for that signal while active. The returned
// stop function unregisters the handler and releases the goroutine.
func (o *Observer) DumpOnSignal(sig ...os.Signal) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, sig...)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
				fmt.Fprintf(os.Stderr, "== obs dump (signal) ==\n")
				o.Dump(os.Stderr)
				o.WritePrometheus(os.Stderr)
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			signal.Stop(ch)
			close(done)
		})
	}
}
