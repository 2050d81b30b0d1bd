package obs

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parsePromLine splits one sample line into name, labels and value,
// enforcing the text exposition format's basic shape.
func parsePromLine(t *testing.T, line string) (name string, labels map[string]string, value float64) {
	t.Helper()
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		t.Fatalf("no value separator in %q", line)
	}
	v, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		t.Fatalf("bad value in %q: %v", line, err)
	}
	series := line[:sp]
	labels = map[string]string{}
	if i := strings.IndexByte(series, '{'); i >= 0 {
		if !strings.HasSuffix(series, "}") {
			t.Fatalf("unterminated label set in %q", line)
		}
		name = series[:i]
		for _, kv := range strings.Split(series[i+1:len(series)-1], ",") {
			eq := strings.IndexByte(kv, '=')
			if eq < 0 {
				t.Fatalf("bad label pair %q in %q", kv, line)
			}
			val, err := strconv.Unquote(kv[eq+1:])
			if err != nil {
				t.Fatalf("label value not quoted in %q: %v", line, err)
			}
			labels[kv[:eq]] = val
		}
	} else {
		name = series
	}
	return name, labels, v
}

func TestWritePrometheusFormat(t *testing.T) {
	o := New(Config{RecorderCap: 64})
	h := o.Hook(int(0), o.RegisterActor("client0"))
	for i := 1; i <= 100; i++ {
		h.RTT(time.Duration(i) * time.Microsecond)
	}
	h.Sleep(3 * time.Millisecond)
	h.Note(EvSend, 1)

	var b strings.Builder
	o.WritePrometheus(&b)
	out := b.String()

	var (
		sawRTTHelp, sawRTTType  bool
		bucketCounts            []float64
		sumNs, countVal, infVal float64
	)
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Fatalf("malformed comment line %q", line)
			}
			if f[2] == "ulipc_rtt_ns" {
				if f[1] == "HELP" {
					sawRTTHelp = true
				}
				if f[1] == "TYPE" {
					sawRTTType = true
					if f[3] != "histogram" {
						t.Fatalf("rtt TYPE = %q, want histogram", f[3])
					}
				}
			}
			continue
		}
		name, labels, v := parsePromLine(t, line)
		if !strings.HasPrefix(name, "ulipc_") {
			t.Fatalf("series %q lacks the ulipc_ prefix", name)
		}
		switch name {
		case "ulipc_rtt_ns_bucket":
			if labels["proto"] != "BSS" {
				t.Fatalf("bucket proto = %q, want BSS", labels["proto"])
			}
			if labels["le"] == "+Inf" {
				infVal = v
			} else {
				if _, err := strconv.ParseUint(labels["le"], 10, 64); err != nil {
					t.Fatalf("non-numeric le %q", labels["le"])
				}
				bucketCounts = append(bucketCounts, v)
			}
		case "ulipc_rtt_ns_sum":
			sumNs = v
		case "ulipc_rtt_ns_count":
			countVal = v
		}
	}
	if !sawRTTHelp || !sawRTTType {
		t.Fatalf("missing HELP/TYPE for ulipc_rtt_ns:\n%s", out)
	}
	if countVal != 100 || infVal != 100 {
		t.Fatalf("count = %v, +Inf = %v, want 100", countVal, infVal)
	}
	if want := float64(5050) * 1000; sumNs != want {
		t.Fatalf("sum = %v, want %v", sumNs, want)
	}
	// Prometheus histograms are cumulative: bucket counts never decrease.
	for i := 1; i < len(bucketCounts); i++ {
		if bucketCounts[i] < bucketCounts[i-1] {
			t.Fatalf("bucket counts not monotonic at %d: %v", i, bucketCounts)
		}
	}
	if len(bucketCounts) == 0 || bucketCounts[len(bucketCounts)-1] != 100 {
		t.Fatalf("last finite bucket should hold all 100 observations: %v", bucketCounts)
	}
	if !strings.Contains(out, "ulipc_sleep_ns_count") {
		t.Errorf("sleep phase series missing:\n%s", out)
	}
	if !strings.Contains(out, "ulipc_flight_events_total 1") {
		t.Errorf("flight recorder counter missing or wrong:\n%s", out)
	}
	// Families with no observations are omitted entirely.
	if strings.Contains(out, "ulipc_queue_wait_ns") {
		t.Errorf("empty queue_wait family should be omitted:\n%s", out)
	}
}

func TestWritePrometheusCounter(t *testing.T) {
	var b strings.Builder
	WritePrometheusCounter(&b, "ulipc_msgs_sent", "messages sent", 42)
	out := b.String()
	for _, want := range []string{
		"# HELP ulipc_msgs_sent_total messages sent",
		"# TYPE ulipc_msgs_sent_total counter",
		"ulipc_msgs_sent_total 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	WritePrometheusCounter(&b, "already_total", "h", 1)
	if strings.Contains(b.String(), "already_total_total") {
		t.Errorf("_total suffix doubled:\n%s", b.String())
	}
}

func TestCumulativeMonotonic(t *testing.T) {
	var h Histogram
	for i := 0; i < 5000; i++ {
		h.Record(time.Duration(i%997) * time.Microsecond)
	}
	cum := h.Snapshot().Cumulative()
	if len(cum) == 0 {
		t.Fatal("no cumulative buckets")
	}
	for i := 1; i < len(cum); i++ {
		if cum[i].Count < cum[i-1].Count {
			t.Fatalf("cumulative counts decreased at %d: %+v", i, cum)
		}
		if cum[i].UpperNS <= cum[i-1].UpperNS {
			t.Fatalf("bucket bounds not increasing at %d: %+v", i, cum)
		}
	}
	if cum[len(cum)-1].Count != 5000 {
		t.Fatalf("final cumulative count = %d, want 5000", cum[len(cum)-1].Count)
	}
}

// The exposition a caller serves (README mounts WritePrometheus on an
// http.HandlerFunc): one RTT sample shows up as its protocol's count.
func TestWritePrometheusExposition(t *testing.T) {
	o := New(Config{})
	o.Hook(3, -1).RTT(time.Millisecond)
	var b strings.Builder
	o.WritePrometheus(&b)
	if !strings.Contains(b.String(), `ulipc_rtt_ns_count{proto="BSLS"} 1`) {
		t.Fatalf("body missing BSLS rtt count:\n%s", b.String())
	}
}

func TestNilObserverExports(t *testing.T) {
	var o *Observer
	var b strings.Builder
	o.WritePrometheus(&b)
	if b.Len() != 0 {
		t.Fatalf("nil observer wrote %q", b.String())
	}
	if o.Snapshot() != nil || o.Proto(0) != nil || o.Recorder() != nil {
		t.Fatal("nil observer accessors should return nil")
	}
	if got := fmt.Sprint(o.Hook(0, 0).Enabled()); got != "false" {
		t.Fatalf("hook from nil observer enabled = %s", got)
	}
}
