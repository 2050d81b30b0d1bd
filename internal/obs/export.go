package obs

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text-format exposition. The histograms are emitted at
// octave (power of two) granularity — the fine log-linear buckets stay
// internal so a scrape is a few hundred lines, not ten thousand. All
// series are nanosecond-valued and follow the Prometheus histogram
// convention: cumulative `_bucket{le=...}` counts, plus `_sum` and
// `_count`.

// promName maps a phase to its metric family name.
func promName(ph Phase) string {
	return "ulipc_" + ph.String() + "_ns"
}

// writePromHist emits one histogram series with a proto label.
func writePromHist(w io.Writer, name, proto string, s HistSnapshot) {
	cum := s.Cumulative()
	for _, b := range cum {
		fmt.Fprintf(w, "%s_bucket{proto=%q,le=\"%d\"} %d\n", name, proto, b.UpperNS, b.Count)
	}
	fmt.Fprintf(w, "%s_bucket{proto=%q,le=\"+Inf\"} %d\n", name, proto, s.Count)
	fmt.Fprintf(w, "%s_sum{proto=%q} %d\n", name, proto, s.Sum)
	fmt.Fprintf(w, "%s_count{proto=%q} %d\n", name, proto, s.Count)
}

// WritePrometheus writes every non-empty histogram in Prometheus text
// exposition format. Families with no observations anywhere are
// omitted entirely (TYPE lines included), keeping idle scrapes small.
func (o *Observer) WritePrometheus(w io.Writer) {
	if o == nil {
		return
	}
	snaps := o.Snapshot()
	for ph := PhaseRTT; ph < NumPhases; ph++ {
		name := promName(ph)
		wroteType := false
		for _, ps := range snaps {
			s := ps.PhaseSnap(ph)
			if s == nil || s.Count == 0 {
				continue
			}
			if !wroteType {
				fmt.Fprintf(w, "# HELP %s %s phase latency histogram (nanoseconds)\n", name, ph)
				fmt.Fprintf(w, "# TYPE %s histogram\n", name)
				wroteType = true
			}
			writePromHist(w, name, ps.Proto, *s)
		}
	}
	// Batch sizes are counts, not durations, so they get their own
	// family outside the *_ns phase loop.
	wroteBatch := false
	for _, ps := range snaps {
		if ps.Batch.Count == 0 {
			continue
		}
		if !wroteBatch {
			fmt.Fprintf(w, "# HELP ulipc_batch_size messages moved per vectored operation\n")
			fmt.Fprintf(w, "# TYPE ulipc_batch_size histogram\n")
			wroteBatch = true
		}
		writePromHist(w, "ulipc_batch_size", ps.Proto, ps.Batch)
	}
	// Payload sizes are bytes, not durations — their own family too.
	wrotePayload := false
	for _, ps := range snaps {
		if ps.Payload.Count == 0 {
			continue
		}
		if !wrotePayload {
			fmt.Fprintf(w, "# HELP ulipc_payload_bytes payload size per payload-carrying send\n")
			fmt.Fprintf(w, "# TYPE ulipc_payload_bytes histogram\n")
			wrotePayload = true
		}
		writePromHist(w, "ulipc_payload_bytes", ps.Proto, ps.Payload)
	}
	if o.rec != nil {
		fmt.Fprintf(w, "# HELP ulipc_flight_events_total events noted on the flight recorder\n")
		fmt.Fprintf(w, "# TYPE ulipc_flight_events_total counter\n")
		fmt.Fprintf(w, "ulipc_flight_events_total %d\n", o.rec.Len())
	}
}

// WritePrometheusCounter emits one counter family. Helper for callers
// (the live System) that combine histogram output with their own
// counters in a single exposition.
func WritePrometheusCounter(w io.Writer, name, help string, value int64) {
	if !strings.HasSuffix(name, "_total") {
		name += "_total"
	}
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s counter\n", name)
	fmt.Fprintf(w, "%s %d\n", name, value)
}
