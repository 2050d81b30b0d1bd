package obs

import (
	"sync"
	"time"
)

// Phase names the four measured segments of a round trip. RTT is the
// whole client-side exchange; QueueWait is producer time lost to a full
// queue (retry/backoff); Spin is the BSLS limited-spin prefix (and any
// bounded poll before blocking); Sleep is time actually parked on the
// consumer semaphore. For a BSLS run, Spin vs. Sleep is exactly the
// paper's fall-through question: a fall-through round trip shows up in
// both, a successful spin only in Spin.
type Phase int

// The measured phases, in presentation order.
const (
	PhaseRTT Phase = iota
	PhaseQueueWait
	PhaseSpin
	PhaseSleep
	NumPhases
)

// String returns the snake_case phase name used in exports.
func (p Phase) String() string {
	switch p {
	case PhaseRTT:
		return "rtt"
	case PhaseQueueWait:
		return "queue_wait"
	case PhaseSpin:
		return "spin"
	case PhaseSleep:
		return "sleep"
	}
	return "unknown"
}

// ProtoHists is the per-protocol histogram block: one Histogram per
// phase, plus the batch-size distribution of the vectored
// SendBatchCtx/ReceiveBatchCtx paths. All fields are lock-free; the zero
// value is ready for use.
type ProtoHists struct {
	RTT       Histogram
	QueueWait Histogram
	Spin      Histogram
	Sleep     Histogram

	// Batch records message counts, not durations: one observation per
	// vectored operation, valued at the number of messages it moved.
	// Mean = sum/count is the achieved amortisation factor (messages
	// per wake-up on the batched paths). It is deliberately not a
	// Phase — phases are time, this is cardinality.
	Batch Histogram

	// Payload records payload sizes in bytes, one observation per
	// payload-carrying send. Like Batch it reuses the histogram's time
	// axis as a plain magnitude axis; mean = sum/count is the average
	// transferred payload size.
	Payload Histogram
}

// Phase returns the histogram for a phase (nil-safe).
func (p *ProtoHists) Phase(ph Phase) *Histogram {
	if p == nil {
		return nil
	}
	switch ph {
	case PhaseRTT:
		return &p.RTT
	case PhaseQueueWait:
		return &p.QueueWait
	case PhaseSpin:
		return &p.Spin
	case PhaseSleep:
		return &p.Sleep
	}
	return nil
}

// ProtoSnapshot is a point-in-time copy of one protocol's histograms.
type ProtoSnapshot struct {
	Proto     string       `json:"proto"`
	RTT       HistSnapshot `json:"rtt"`
	QueueWait HistSnapshot `json:"queue_wait"`
	Spin      HistSnapshot `json:"spin"`
	Sleep     HistSnapshot `json:"sleep"`
	Batch     HistSnapshot `json:"batch"`
	Payload   HistSnapshot `json:"payload"`
}

// Phase returns the snapshot for a phase.
func (p *ProtoSnapshot) PhaseSnap(ph Phase) *HistSnapshot {
	switch ph {
	case PhaseRTT:
		return &p.RTT
	case PhaseQueueWait:
		return &p.QueueWait
	case PhaseSpin:
		return &p.Spin
	case PhaseSleep:
		return &p.Sleep
	}
	return nil
}

// Snapshot copies the histogram block.
func (p *ProtoHists) Snapshot(name string) ProtoSnapshot {
	return ProtoSnapshot{
		Proto:     name,
		RTT:       p.RTT.Snapshot(),
		QueueWait: p.QueueWait.Snapshot(),
		Spin:      p.Spin.Snapshot(),
		Sleep:     p.Sleep.Snapshot(),
		Batch:     p.Batch.Snapshot(),
		Payload:   p.Payload.Snapshot(),
	}
}

// Config configures an Observer.
type Config struct {
	// Protos names the protocol histogram sets, indexed by the protocol
	// id the runtime passes to Observer.Proto (the live runtime passes
	// core.Algorithm values and names them BSS/BSW/BSWY/BSLS). Empty
	// defaults to those four names.
	Protos []string

	// RecorderCap, when positive, attaches a flight recorder holding
	// the most recent RecorderCap events (rounded up to a power of
	// two). Zero disables the recorder; histograms still work.
	RecorderCap int
}

// Observer is the root observability handle: per-protocol phase
// histograms plus an optional flight recorder. One Observer is meant to
// watch one System (or one benchmark cell); snapshots from several
// observers merge via HistSnapshot.Merge.
type Observer struct {
	names  []string
	protos []*ProtoHists
	rec    *FlightRecorder

	mu     sync.Mutex
	actors []string // registered actor names, indexed by id
}

// DefaultProtoNames is the protocol naming the live runtime uses.
var DefaultProtoNames = []string{"BSS", "BSW", "BSWY", "BSLS"}

// New builds an Observer.
func New(cfg Config) *Observer {
	names := cfg.Protos
	if len(names) == 0 {
		names = DefaultProtoNames
	}
	o := &Observer{names: append([]string(nil), names...)}
	o.protos = make([]*ProtoHists, len(o.names))
	for i := range o.protos {
		o.protos[i] = &ProtoHists{}
	}
	if cfg.RecorderCap > 0 {
		o.rec = NewFlightRecorder(cfg.RecorderCap)
	}
	return o
}

// Proto returns the histogram block for protocol id i (nil-safe,
// bounds-safe: out-of-range ids observe into nothing).
func (o *Observer) Proto(i int) *ProtoHists {
	if o == nil || i < 0 || i >= len(o.protos) {
		return nil
	}
	return o.protos[i]
}

// Recorder returns the flight recorder, or nil if disabled.
func (o *Observer) Recorder() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// RegisterActor names a participant (client0, server, ...) and returns
// its id for flight-recorder attribution.
func (o *Observer) RegisterActor(name string) int32 {
	if o == nil {
		return -1
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.actors = append(o.actors, name)
	return int32(len(o.actors) - 1)
}

// ActorName resolves a registered actor id (unknown ids print as "?").
func (o *Observer) ActorName(id int32) string {
	if o == nil {
		return "?"
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if id < 0 || int(id) >= len(o.actors) {
		return "?"
	}
	return o.actors[id]
}

// Hook builds the per-handle observation context for protocol id proto
// and a registered actor. A Hook built from a nil Observer is the
// disabled zero Hook.
func (o *Observer) Hook(proto int, actor int32) Hook {
	if o == nil {
		return Hook{}
	}
	return Hook{H: o.Proto(proto), R: o.rec, ID: actor}
}

// Snapshot copies every protocol's histograms.
func (o *Observer) Snapshot() []ProtoSnapshot {
	if o == nil {
		return nil
	}
	out := make([]ProtoSnapshot, len(o.protos))
	for i, p := range o.protos {
		out[i] = p.Snapshot(o.names[i])
	}
	return out
}

// ProtoNames returns the configured protocol names.
func (o *Observer) ProtoNames() []string {
	if o == nil {
		return nil
	}
	return append([]string(nil), o.names...)
}

// epoch is the package timebase, backdated by a nanosecond so that a
// Now stamp is always positive and 0 can mean "no stamp taken".
var epoch = time.Now().Add(-1)

// Now returns monotonic nanoseconds since the package epoch. It is the
// one clock every phase boundary uses, and it reads the clock once:
// time.Now reads it twice (wall and monotonic) and no phase uses the
// wall reading. Stamps are comparable across goroutines of one process.
func Now() int64 { return int64(time.Since(epoch)) }

// Since returns the time elapsed since a Now stamp (one clock read).
func Since(t0 int64) time.Duration { return time.Duration(Now() - t0) }

// Hook is the per-handle observability context the protocol code
// carries: which protocol's histograms to record into, the flight
// recorder to note events on, and the actor id for attribution. The
// zero Hook is disabled — every method then reduces to a nil-check, so
// handles built without an Observer pay nothing on the hot path.
type Hook struct {
	H  *ProtoHists
	R  *FlightRecorder
	ID int32
}

// Enabled reports whether any observation is attached.
func (h Hook) Enabled() bool { return h.H != nil || h.R != nil }

// Stamp opens a timed phase: Now when the hook is enabled, else 0 with
// no clock read.
func (h Hook) Stamp() int64 {
	if !h.Enabled() {
		return 0
	}
	return Now()
}

// Slept closes a park that began at the Stamp t0: the parked time goes
// to the sleep-phase histogram and an EvBlock event (arg: blocked ns)
// to the flight recorder. A disabled hook does nothing.
func (h Hook) Slept(t0 int64) {
	if h.Enabled() {
		h.slept(t0)
	}
}

// slept is Slept's body, kept out of line so that Slept inlines to its
// nil checks at every P.
func (h Hook) slept(t0 int64) {
	d := Since(t0)
	h.Sleep(d)
	h.Note(EvBlock, int64(d))
}

// RTT records a whole round-trip duration.
func (h Hook) RTT(d time.Duration) {
	if h.H != nil {
		h.H.RTT.Record(d)
	}
}

// QueueWait records producer time lost to a full queue.
func (h Hook) QueueWait(d time.Duration) {
	if h.H != nil {
		h.H.QueueWait.Record(d)
	}
}

// Spin records a limited-spin (poll) phase duration.
func (h Hook) Spin(d time.Duration) {
	if h.H != nil {
		h.H.Spin.Record(d)
	}
}

// Sleep records a blocked (parked on semaphore) phase duration.
func (h Hook) Sleep(d time.Duration) {
	if h.H != nil {
		h.H.Sleep.Record(d)
	}
}

// Batch records the size of one vectored operation (k messages moved
// per wake-up). The histogram's time axis is reused as a plain count
// axis: an observation of k is recorded as k "nanoseconds".
func (h Hook) Batch(k int) {
	if h.H != nil {
		h.H.Batch.Record(time.Duration(k))
	}
}

// Payload records the size in bytes of one transferred payload.
func (h Hook) Payload(n int) {
	if h.H != nil {
		h.H.Payload.Record(time.Duration(n))
	}
}

// Note records a flight-recorder event attributed to the hook's actor.
func (h Hook) Note(k EventKind, arg int64) {
	if h.R != nil {
		h.R.Note(k, h.ID, arg)
	}
}
