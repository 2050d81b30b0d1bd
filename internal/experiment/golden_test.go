package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ulipc/internal/core"
	"ulipc/internal/machine"
	"ulipc/internal/metrics"
	"ulipc/internal/workload"
)

// TestSimulatedReportsGolden pins the simulator's figures: every
// experiment except the one that times the live host is rendered in
// quick mode and compared byte for byte with testdata/<id>.golden. The
// simulator is deterministic, so any drift means a protocol changed its
// order of queue, flag or system-call steps. An intended change
// regenerates the files with ULIPC_UPDATE_GOLDEN=1.
func TestSimulatedReportsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator sweep")
	}
	for _, e := range All() {
		if e.ID == "queues" { // times the live host, not the simulator
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(Options{Quick: true, Msgs: 150})
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			rep.Render(&sb)
			rep.RenderRecords(&sb)
			checkGolden(t, e.ID, sb.String())
		})
	}
}

// TestFullQueueGolden pins the simulated protocols on a queue that
// fills: none of the experiments above does, so only this case drives
// the producers' full-queue leg — BSS's busy-wait (Figure 1) and the
// blocking protocols' flat sleep(1) (Figure 5) — on every server
// architecture. It renders the figures ipcsim prints for
// "-machine sgi -queuecap 2 -clients 6 -msgs 100".
func TestFullQueueGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator sweep")
	}
	m, _ := machine.ByName("sgi")
	var sb strings.Builder
	for _, c := range []struct {
		alg     core.Algorithm
		arch    workload.Arch
		workers int
	}{
		{core.BSS, workload.ArchSharedQueue, 0},
		{core.BSW, workload.ArchSharedQueue, 0},
		{core.BSWY, workload.ArchSharedQueue, 0},
		{core.BSLS, workload.ArchSharedQueue, 0},
		{core.BSW, workload.ArchThreadPerClient, 0},
		{core.BSW, workload.ArchSharedQueue, 3},
	} {
		res, err := workload.RunSim(workload.Config{
			Machine: m, Alg: c.alg, Arch: c.arch, ServerWorkers: c.workers,
			Clients: 6, Msgs: 100, QueueCap: 2, MaxSpin: core.DefaultMaxSpin,
		})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s %s workers=%d: %.2f msgs/ms, %.1f us rtt, %d ns\n", c.alg, c.arch, c.workers, res.Throughput, res.RTTMicros, res.Duration)
		for _, p := range []struct {
			who string
			s   metrics.Snapshot
		}{{"server", res.Server}, {"clients", res.Clients}} {
			s := p.s
			fmt.Fprintf(&sb, "  %-7s vcs=%d ivcs=%d yields=%d busy=%d P=%d V=%d blocks=%d sleeps=%d spin=%d/%d/%d\n",
				p.who, s.VoluntaryCS, s.InvoluntaryCS, s.Yields, s.BusyWaits, s.SemP, s.SemV, s.Blocks, s.Sleeps,
				s.SpinLoops, s.SpinIters, s.SpinFallThrus)
		}
	}
	checkGolden(t, "fullqueue", sb.String())
}

// checkGolden compares got with testdata/<id>.golden, rewriting the
// file first when ULIPC_UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, id, got string) {
	t.Helper()
	path := filepath.Join("testdata", id+".golden")
	if os.Getenv("ULIPC_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (set ULIPC_UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from %s.\n--- got ---\n%s--- want ---\n%s", id, path, got, want)
	}
}
