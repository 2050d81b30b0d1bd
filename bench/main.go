// Command bench is the repository's benchmark: five closed-loop
// workloads against the public ulipc surface, every reply verified,
// measured on one core in short fixed-work windows, the best of which
// is reported; plus the same workload on two cores, a traced run and a
// layer ledger that time the calls into each module's exported
// functions from outside. See README.md beside this file for what each
// workload and metric means and why it was chosen.
//
// One invocation with --workload measures that workload for --seconds
// and ends with one JSON line (the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1). Without --workload it runs
// every workload both ways, each in a freshly exec'd process.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// watchdogMax bounds any one process of the benchmark: a deadlock, a
// dead child or a lost wake-up becomes counted failures and a non-zero
// exit well inside the caller's own limit, never a hang.
const watchdogMax = 150 * time.Second

// The traced run is short: the point is where the time goes, not how
// steady it is, and every span stays in memory.
const tracedWindows = 40

// tracedCalls is how many calls one client makes in a whole traced run
// (cold start and the discarded window included).
func tracedCalls(w *spec) int {
	return coldStartMsgs/w.clients/w.batch + (tracedWindows+1)*w.callsPerWindow()
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	windows  int
	check    bool
	list     bool
}

func main() {
	if os.Getenv(childEnv) == childServer {
		os.Exit(xprocServerMain())
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with its JSON result line (default: all, each in its own process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for message arguments, payload sizes and fill bytes")
	flag.IntVar(&o.seconds, "seconds", 20, "seconds of measurement per workload")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: counts, traced run and layer ledger")
	flag.IntVar(&o.windows, "windows", 0, "smoke run: exactly this many windows per phase (and at most as many ledger batches) instead of --seconds")
	flag.BoolVar(&o.check, "check", false, "run two sets back to back and compare them against the bounds in BENCHMARK.json")
	flag.BoolVar(&o.list, "list", false, "list workloads and metrics with units and bounds, from BENCHMARK.json")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	var err error
	switch {
	case o.list:
		err = list(os.Stdout)
	case o.check:
		err = check(o)
	case o.workload == "":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample counts, formula: for the reader, not the driver

	// printOnly keeps a diagnostic out of the result line, which holds
	// exactly the metrics BENCHMARK.json declares for the mode.
	printOnly bool
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload in this process and prints its metrics,
// by name and unit, then the result line.
func runOne(o options) error {
	w := specByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q (see -list)", o.workload)
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 || o.windows < 0 || o.windows == 1 {
		return fmt.Errorf("need --seconds ≥ 1, --trace 0 or 1, --windows 0 or ≥ 2 (one window of each kind)")
	}
	ctx, cancel := context.WithTimeout(context.Background(), watchdogMax)
	defer cancel()
	// Backstop for a hang the context cannot reach.
	hard := time.AfterFunc(watchdogMax+10*time.Second, func() {
		fmt.Fprintf(os.Stderr, "bench: %s: watchdog expired\n", w.name)
		os.Exit(3)
	})
	defer hard.Stop()

	in := newInputs(o.seed)
	var (
		ms        []metric
		attempted int64
		failed    int64
		err       error
	)
	if o.trace == 0 {
		ms, attempted, failed, err = endToEnd(ctx, w, in, o)
	} else {
		ms, attempted, failed, err = perLayer(ctx, w, in, o)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	fmt.Printf("# %s seed=%d trace=%d cores=1 %s\n", w.name, o.seed, o.trace, environment())
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		fmt.Printf("%-36s %16s %-6s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 8, 64), m.unit, m.note)
		if !m.printOnly {
			res.Metrics[m.name] = metricValue{m.value, m.unit}
		}
	}
	fmt.Printf("%-36s %16d of %d\n", "failed_ops", failed, attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if failed != 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, failed, attempted)
	}
	return nil
}

// untilFor ends the measured phase after o.windows windows, or after
// its share of o.seconds (then never before the fourth window: two of
// each kind).
func untilFor(o options, share int) func(int) bool {
	if o.windows > 0 {
		return func(done int) bool { return done < o.windows }
	}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second / time.Duration(share))
	return func(done int) bool { return done < 4 || time.Now().Before(deadline) }
}

// endToEnd is the untraced run on one core: the windows, and between
// them the cold starts setup_s is read from.
func endToEnd(ctx context.Context, w *spec, in *inputs, o options) (ms []metric, attempted, failed int64, err error) {
	var (
		setups   []float64
		setupErr error
	)
	more := untilFor(o, 1)
	m, err := measure(ctx, w, in, nil, 1, func(done int) bool {
		if !more(done) {
			return false
		}
		if done%w.setupEvery != 0 {
			return true
		}
		inst, d, f, err := coldStart(ctx, w, in, nil, 1)
		if err != nil {
			setupErr = fmt.Errorf("cold start %d: %w", len(setups), err)
			return false
		}
		failed += int64(f + inst.stop())
		attempted += coldStartMsgs
		setups = append(setups, d.Seconds())
		runtime.GC() // the next window starts from the measured system's heap, not this one's garbage
		return true
	})
	if err == nil {
		err = setupErr
	}
	if err != nil {
		return nil, 0, 0, err
	}
	failed += m.failed
	attempted += m.attempted

	nThru, nLat := len(m.msgsPerS()), len(m.p50s())
	perLat := m.windows[1].samples
	thru := fmt.Sprintf("best of %d windows × %d msgs", nThru, m.windows[0].msgs)
	lat := func(q float64) string {
		return fmt.Sprintf("best of %d windows × %d samples (%d beyond)", nLat, perLat, beyond(perLat, q))
	}
	ms = []metric{
		{name: "rtt_p50_ns", value: best(m.p50s(), false), unit: "ns", note: lat(0.50)},
		{name: "msgs_per_s", value: best(m.msgsPerS(), true), unit: "1/s", note: thru},
		{name: "bytes_per_s", value: best(m.bytesPerS(), true), unit: "B/s", note: thru},
		{name: "cpu_ns_per_msg", value: best(m.cpuPerMsg(), false), unit: "ns", note: "the same windows, process CPU ÷ msgs"},
		{name: "setup_s", value: best(setups, false), unit: "s", note: fmt.Sprintf("best of %d cold starts to %d round trips, one every %d windows", len(setups), coldStartMsgs, w.setupEvery)},
		// Not in the result line: demoted to per-layer by calibration
		// (README.md), and how disturbed this run was.
		{name: "rtt_p99_ns", value: best(m.p99s(), false), unit: "ns", note: lat(0.99), printOnly: true},
		{name: "harness.disturbance", value: disturbance(m.p50s()), unit: "ratio", note: disturbanceNote, printOnly: true},
		{name: "harness.steal_pct", value: m.stealPct, unit: "%", note: stealNote, printOnly: true},
	}
	return ms, attempted, failed, nil
}

const (
	disturbanceNote = "median window p50 ÷ best window p50 − 1"
	stealNote       = "/proc/stat steal during the windows"
)

// perLayer is the --trace 1 run: a shorter untraced phase for the
// per-message counts (and the untraced median the tracing overhead is
// measured against), the traced run, the same workload on two cores,
// and the layer ledger.
func perLayer(ctx context.Context, w *spec, in *inputs, o options) (ms []metric, attempted, failed int64, err error) {
	m, err := measure(ctx, w, in, nil, 1, untilFor(o, 3))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("cold start: %w", err)
	}
	windows := tracedWindows
	if o.windows > 0 {
		windows = o.windows
	}
	tr := newTracer(procHarness)
	tm, err := measure(ctx, w, in, tr, 1, func(done int) bool { return done < windows })
	if err != nil {
		return nil, 0, 0, fmt.Errorf("traced cold start: %w", err)
	}
	ts := summarize(tr.all())
	two, err := measure(ctx, w, in, nil, 2, untilFor(o, 6))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("two-core cold start: %w", err)
	}
	failed, attempted = m.failed+tm.failed+two.failed, m.attempted+tm.attempted+two.attempted

	ledger, err := runLedger(o.windows)
	if err != nil {
		return nil, 0, 0, err
	}

	msgs := float64(m.windowMsgs())
	perMsg := func(kind int) float64 { return float64(m.counts[kind]) / msgs }
	p50, tracedP50 := best(m.p50s(), false), best(tm.p50s(), false)
	phases := tm.phases
	const twoNote = "the same workload on two cores: follows the hypervisor's placement of the vCPUs, so reported, never gated"
	ms = []metric{
		{name: "rtt_p99_ns", value: best(m.p99s(), false), unit: "ns", note: fmt.Sprintf("untraced windows × %d samples (%d beyond)", m.windows[1].samples, beyond(m.windows[1].samples, 0.99))},
		{name: "core.blocks_per_msg", value: perMsg(cBlocks), unit: "count", note: "P operations that slept"},
		{name: "core.wakes_per_msg", value: perMsg(cWakes), unit: "count", note: "V operations that woke a sleeper"},
		{name: "core.spin_iters_per_msg", value: perMsg(cSpinIters), unit: "count"},
		{name: "core.spin_fallthru_per_msg", value: perMsg(cSpinFallThrus), unit: "count"},
		{name: "core.retries_per_msg", value: perMsg(cRetries), unit: "count", note: "queue-full naps"},
		{name: "shm.pool_refills_per_msg", value: perMsg(cPoolRefills), unit: "count"},
		{name: "shm.block_fallbacks_per_msg", value: perMsg(cBlockFallbacks), unit: "count"},
		{name: "shm.block_exhausts_per_msg", value: perMsg(cBlockExhausts), unit: "count"},
		{name: "harness.allocs_per_msg", value: float64(m.allocs) / msgs, unit: "count", note: "runtime.MemStats.Mallocs over the untraced windows"},
		{name: "harness.heap_bytes_after_setup", value: float64(m.heapAfterSetup), unit: "B"},
		{name: "harness.disturbance", value: disturbance(m.p50s()), unit: "ratio", note: disturbanceNote},
		{name: "harness.steal_pct", value: m.stealPct, unit: "%", note: stealNote},
		{name: "twocore.rtt_p50_ns", value: best(two.p50s(), false), unit: "ns", note: twoNote},
		{name: "twocore.msgs_per_s", value: best(two.msgsPerS(), true), unit: "1/s"},
		{name: "twocore.cpu_ns_per_msg", value: best(two.cpuPerMsg(), false), unit: "ns"},
	}
	for _, r := range ledger {
		ms = append(ms, metric{name: r.name, value: r.ns, unit: "ns", note: "best of the batches, per operation"})
	}
	res, formula := residual(w, p50, ledger)
	ms = append(ms, metric{name: "ledger.residual", value: res, unit: "ratio", note: formula})

	sent := fmt.Sprintf("median of %d spans, %d with every child", ts.count[spanSend], ts.matched)
	ms = append(ms,
		metric{name: "trace.send_ns", value: ts.median[spanSend], unit: "ns", note: sent},
		metric{name: "trace.serve_ns", value: ts.median[spanServe], unit: "ns", note: fmt.Sprintf("median of %d spans", ts.count[spanServe])},
		metric{name: "trace.transport_ns", value: ts.transport, unit: "ns", note: "median self time of send: send − serve"},
		metric{name: "trace.alloc_ns", value: ts.median[spanAlloc], unit: "ns"},
		metric{name: "trace.fill_ns", value: ts.median[spanFill], unit: "ns"},
		metric{name: "trace.verify_release_ns", value: ts.median[spanVerifyRelease], unit: "ns"},
		metric{name: "phase.queue_wait_ns", value: phases.QueueWait.Quantile(0.5), unit: "ns", note: fmt.Sprintf("obs histogram median of %d", phases.QueueWait.Count)},
		metric{name: "phase.spin_ns", value: phases.Spin.Quantile(0.5), unit: "ns", note: fmt.Sprintf("obs histogram median of %d", phases.Spin.Count)},
		metric{name: "phase.sleep_ns", value: phases.Sleep.Quantile(0.5), unit: "ns", note: fmt.Sprintf("obs histogram median of %d", phases.Sleep.Count)},
		metric{name: "trace.overhead", value: tracedP50/p50 - 1, unit: "ratio", note: fmt.Sprintf("traced p50 %.0f ÷ untraced p50 %.0f − 1", tracedP50, p50)},
	)
	return ms, attempted, failed, nil
}

// --- every workload, each in its own process ---

// runSelf re-executes this binary for one workload and returns its
// parsed result line. The child's report goes to out as it is printed.
func runSelf(o options, workload string, trace int, out *os.File) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(trace), "--windows", strconv.Itoa(o.windows)}
	cmd := exec.Command(exe, args...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.MultiWriter(&buf, out), os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s --trace %d: %w", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s --trace %d: result line: %w", workload, trace, err)
	}
	return res, nil
}

func runAll(o options) error {
	var errs []error
	for _, w := range specs {
		for trace := 0; trace <= 1; trace++ {
			if _, err := runSelf(o, w.name, trace, os.Stdout); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// --- BENCHMARK.json: the names, units and bounds live there ---

type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

// manifestPath is relative to the repository root, the working
// directory when the benchmark is run as documented.
const manifestPath = "BENCHMARK.json"

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func list(out io.Writer) error {
	m, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "workloads:")
	for _, w := range m.Workloads {
		fmt.Fprintf(out, "  %-16s %s\n", w.Name, w.Why)
	}
	fmt.Fprintln(out, "end-to-end metrics (gated):")
	for _, e := range m.EndToEnd {
		fmt.Fprintf(out, "  %-36s %-6s %-6s better, may worsen by %.0f%%\n", e.Name, e.Unit, e.Better, 100*e.Bound)
	}
	fmt.Fprintln(out, "per-layer metrics (reported, never gated):")
	for _, e := range m.PerLayer {
		fmt.Fprintf(out, "  %-36s %-6s %s better\n", e.Name, e.Unit, e.Better)
	}
	return nil
}

// checkRuns is how many runs of a workload make one of check's sets; the
// set's value is their median, as in the comparison the bounds are for.
const checkRuns = 3

// check measures the same code twice and holds each end-to-end pair to
// its bound: the repeatability the bounds were calibrated for, re-tested
// on this machine, now. The two sets' runs alternate, each with another
// seed, so both sample the same minutes of the machine.
func check(o options) error {
	m, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	var values [2]map[string][]float64 // per set: workload/metric → one value per run
	for set := range values {
		values[set] = make(map[string][]float64)
	}
	for _, w := range specs {
		for run := 0; run < 2*checkRuns; run++ {
			res, err := runSelf(options{seed: o.seed + int64(run), seconds: o.seconds, windows: o.windows}, w.name, 0, os.Stderr)
			if err != nil {
				return err
			}
			for name, v := range res.Metrics {
				key := w.name + "/" + name
				values[run%2][key] = append(values[run%2][key], v.Value)
			}
		}
	}
	breaches := 0
	fmt.Printf("median of %d runs per set\n%-14s %-16s %14s %14s %8s %6s\n", checkRuns, "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, w := range specs {
		for _, e := range m.EndToEnd {
			a := quantile(values[0][w.name+"/"+e.Name], 0.5)
			b := quantile(values[1][w.name+"/"+e.Name], 0.5)
			diff := math.Abs(a-b) / math.Min(a, b)
			mark := ""
			if !(diff <= e.Bound) {
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-14s %-16s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", w.name, e.Name, a, b, 100*diff, 100*e.Bound, mark)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d workload × metric pairs differ between two sets of the same code by more than their bound", breaches)
	}
	return nil
}
