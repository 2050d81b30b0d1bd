// Command ipcbench regenerates the paper's tables and figures from the
// discrete-event reproduction (and the live-runtime ablations), and runs
// the live runtime's chaos and cross-process crash cells. Wall-clock
// measurement is bench/'s job (bash bench/run.sh, BENCHMARK.json).
//
// Usage:
//
//	ipcbench                    # run every experiment
//	ipcbench -exp fig2          # run one experiment
//	ipcbench -exp fig11 -msgs 5000
//	ipcbench -list              # list experiment ids
//	ipcbench -quick             # faster, lower-precision sweeps
//	ipcbench -records           # also dump the flat record map
//
// Chaos mode (seeded fault injection + recovery, pass/fail not speed):
//
//	ipcbench -chaos                       # full protocol matrix, text summary
//	ipcbench -chaos -seed 42              # reproducible fault schedules
//	ipcbench -chaos -json -o BENCH_chaos.json
//	ipcbench -chaos -quick                # small matrix for CI smoke
//	ipcbench -chaos -shards 2,4           # shard-kill cell sizes (default 2)
//	ipcbench -chaos -paysize 1024         # leak-audited payload cells: the
//	                                      # lease-conservation audit fails
//	                                      # the cell if any arena block is
//	                                      # missing after crash recovery
//
// A chaos cell fails on deadlock, pool leak, or validation mismatch;
// any failed cell makes the process exit non-zero after the full
// report is written.
//
// Cross-process chaos (real OS processes over a memfd arena + futexes):
//
//	ipcbench -proc -chaos -seed 42        # SIGKILL the server mid-traffic;
//	                                      # fails on a hung client, a missed
//	                                      # ErrPeerDead, or a leaked pool
//	ipcbench -proc -chaos -procclients 2,4,8 -paysize 0,1024
//
// ipcbench re-executes itself as the worker processes of -proc cells;
// the ULIPC_PROC_ROLE environment variable marks a worker invocation.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/experiment"
	"ulipc/internal/shm"
	"ulipc/internal/workload"
)

func main() {
	// A -proc cell re-executes this binary as its server/client worker
	// processes; a worker invocation runs its role and exits here.
	workload.MaybeProcWorker()
	var (
		exp     = flag.String("exp", "", "experiment id to run (default: all)")
		msgs    = flag.Int("msgs", 0, "requests per client (0 = experiment default)")
		quick   = flag.Bool("quick", false, "faster, lower-precision sweeps")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		records = flag.Bool("records", false, "also print the machine-readable record map")
		format  = flag.String("format", "text", "output format: text (tables + ASCII plots) or md (Markdown tables)")

		chaos    = flag.Bool("chaos", false, "run the seeded chaos matrix (fault injection + recovery) instead of the simulator experiments")
		seed     = flag.Int64("seed", 1, "with -chaos: base seed for the fault schedules (cell i uses seed+i)")
		jsonOut  = flag.Bool("json", false, "with -chaos: emit the JSON report instead of a text table")
		outFile  = flag.String("o", "", "with -chaos: write the report to this file instead of stdout")
		clients  = flag.String("clients", "", "with -chaos: comma-separated client counts")
		algs     = flag.String("algs", "", "with -chaos: comma-separated protocols")
		shards   = flag.String("shards", "", "with -chaos: comma-separated shard counts for the shard-kill cells (default 2)")
		paySizes = flag.String("paysize", "", "with -chaos: comma-separated payload sizes in bytes for the leak-audited crash cells (0 is the header-only cell)")
		watchdog = flag.Duration("watchdog", 2*time.Minute, "with -chaos: per-cell deadline; a deadlocked cell is recorded and the sweep continues")

		proc        = flag.Bool("proc", false, "with -chaos: SIGKILL a cross-process server mid-traffic instead of the in-process fault matrix")
		procClients = flag.String("procclients", "", "with -proc -chaos: comma-separated client counts for the cross-process cells (default 2)")
	)
	flag.Parse()

	if *proc && !*chaos {
		fmt.Fprintln(os.Stderr, "ipcbench: -proc runs only with -chaos")
		os.Exit(1)
	}
	if *chaos {
		var err error
		if *proc {
			err = runProcChaos(*jsonOut, *outFile, *procClients, *algs, *paySizes, *seed, *watchdog)
		} else {
			err = runChaos(*jsonOut, *outFile, *msgs, *quick, *clients, *algs, *shards, *paySizes, *seed, *watchdog)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipcbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiment.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := experiment.Options{Msgs: *msgs, Quick: *quick}
	var toRun []experiment.Experiment
	if *exp == "" {
		toRun = experiment.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := experiment.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "ipcbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			toRun = append(toRun, e)
		}
	}

	for _, e := range toRun {
		rep, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipcbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *format == "md" {
			rep.RenderMarkdown(os.Stdout)
		} else {
			rep.Render(os.Stdout)
		}
		if *records {
			rep.RenderRecords(os.Stdout)
			fmt.Println()
		}
	}
}

// runChaos executes the seeded chaos matrix (workload.RunChaosBench).
// Every cell runs regardless of earlier failures; the report (JSON or
// text) is written before the error return turns a failed cell into a
// non-zero exit — the contract CI's chaos gate relies on.
func runChaos(jsonOut bool, outFile string, msgs int, quick bool, clients, algs, shards, paySizes string, seed int64, watchdog time.Duration) error {
	opts := workload.ChaosOptions{Msgs: msgs, Seed: seed, Watchdog: watchdog}
	var err error
	if opts.Clients, err = parseClients(clients); err != nil {
		return err
	}
	if opts.Algs, err = parseAlgs(algs); err != nil {
		return err
	}
	if opts.Shards, err = parseClients(shards); err != nil {
		return fmt.Errorf("-shards: %w", err)
	}
	if opts.PaySizes, err = parseSizes(paySizes); err != nil {
		return fmt.Errorf("-paysize: %w", err)
	}
	if quick {
		// CI smoke: a protocol pair and small fan-in, seconds not minutes.
		if opts.Algs == nil {
			opts.Algs = []core.Algorithm{core.BSW, core.BSLS}
		}
		if opts.Clients == nil {
			opts.Clients = []int{2, 4}
		}
		if opts.Msgs == 0 {
			opts.Msgs = 50
		}
	}
	out := os.Stdout
	if outFile != "" {
		f, ferr := os.Create(outFile)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		out = f
	}
	rep, err := workload.RunChaosBench(opts, os.Stderr)
	if rep != nil {
		if jsonOut {
			if werr := rep.WriteJSON(out); werr != nil && err == nil {
				err = werr
			}
		} else {
			renderChaosText(out, rep)
		}
	}
	return err
}

// runProcChaos executes the cross-process SIGKILL cells: for each
// protocol and client count, server and client processes exchange
// traffic over a memfd segment until the parent SIGKILLs the server;
// every surviving client must unblock with ErrPeerDead and the
// post-mortem audit must make the pool whole. The full report is
// written before a failed cell turns into a non-zero exit.
func runProcChaos(jsonOut bool, outFile, clients, algs, paySizes string, seed int64, watchdog time.Duration) error {
	cls, err := parseClients(clients)
	if err != nil {
		return fmt.Errorf("-procclients: %w", err)
	}
	if len(cls) == 0 {
		cls = []int{2}
	}
	as, err := parseAlgs(algs)
	if err != nil {
		return err
	}
	if len(as) == 0 {
		as = []core.Algorithm{core.BSW, core.BSA}
	}
	// Each (alg, clients) cell runs once per payload size; size 0 is the
	// legacy header-only kill, a positive size the SIGKILL-mid-lease
	// variant whose audit must recover every leased arena block.
	sizes, err := parseSizes(paySizes)
	if err != nil {
		return fmt.Errorf("-paysize: %w", err)
	}
	if len(sizes) == 0 {
		sizes = []int{0}
	}
	out := os.Stdout
	if outFile != "" {
		f, ferr := os.Create(outFile)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		out = f
	}
	var results []workload.ProcChaosResult
	var failures []error
	i := int64(0)
	for _, alg := range as {
		for _, n := range cls {
			for _, size := range sizes {
				label := fmt.Sprintf("xproc-kill %-5s %3dc", alg, n)
				if size > 0 {
					label = fmt.Sprintf("%s p%-5d", label, size)
				}
				res, err := workload.RunProcChaosKill(workload.ProcConfig{
					Alg:      alg,
					Clients:  n,
					Seed:     seed + i,
					PaySize:  size,
					Watchdog: watchdog,
				})
				i++
				if errors.Is(err, shm.ErrMapUnsupported) {
					fmt.Fprintf(os.Stderr, "%s  skipped: no mapped-segment backend\n", label)
					continue
				}
				results = append(results, res)
				if err != nil {
					failures = append(failures, fmt.Errorf("xproc-kill %s/%dc/p%d: %w", alg, n, size, err))
					fmt.Fprintf(os.Stderr, "%s  FAILED: %v\n", label, err)
				} else {
					fmt.Fprintf(os.Stderr, "%s  completed=%d detected=%d detect_max=%.1fms rescues=%d orphans=%d blocks=%d\n",
						label, res.Completed, res.Detected, res.DetectMsMax, res.WakeRescues, res.OrphanMsgs+res.OrphanRefs, res.OrphanBlocks)
				}
			}
		}
	}
	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if werr := enc.Encode(results); werr != nil {
			failures = append(failures, werr)
		}
	} else {
		fmt.Fprintf(out, "cross-process SIGKILL chaos (base seed %d, backend varies per build)\n", seed)
		fmt.Fprintf(out, "%-20s %9s %9s %5s %11s %8s %8s %7s  %s\n",
			"cell", "completed", "detected", "hung", "detect(ms)", "rescues", "orphans", "leaked", "status")
		for _, r := range results {
			status := "ok"
			if r.Error != "" {
				status = "FAIL: " + r.Error
			}
			cell := fmt.Sprintf("xproc-kill/%s/%dc", r.Alg, r.Clients)
			if r.PaySize > 0 {
				cell += fmt.Sprintf("/p%d", r.PaySize)
			}
			fmt.Fprintf(out, "%-20s %9d %9d %5d %11.1f %8d %8d %7d  %s\n",
				cell, r.Completed, r.Detected, r.Hung,
				r.DetectMsMax, r.WakeRescues, r.OrphanMsgs+r.OrphanRefs+r.OrphanBlocks, r.PoolLeaked+r.BlockLeaked, status)
		}
	}
	return errors.Join(failures...)
}

func renderChaosText(out *os.File, rep *workload.ChaosReport) {
	fmt.Fprintf(out, "chaos matrix (base seed %d, %d msgs/client, %s, GOMAXPROCS=%d)\n",
		rep.BaseSeed, rep.MsgsPerCli, rep.GoVersion, rep.GOMAXPROCS)
	fmt.Fprintf(out, "%-24s %9s %8s %8s %7s %8s %8s %8s %7s  %s\n",
		"cell", "completed", "aborted", "crashes", "deaths", "reclaims", "orphans", "rescues", "leaked", "status")
	for _, c := range rep.Cells {
		status := "ok"
		if c.Error != "" {
			status = "FAIL: " + c.Error
		}
		fmt.Fprintf(out, "%-24s %9d %8d %8d %7d %8d %8d %8d %7d  %s\n",
			c.Label, c.Completed, c.Aborted, c.Crashes, c.PeerDeaths,
			c.LockReclaims, c.OrphanMsgs+c.OrphanRefs, c.WakeRescues, c.PoolLeaked, status)
	}
}

func parseClients(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -clients entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseSizes parses a -paysize list. Unlike -clients, zero is a legal
// entry: it names the legacy header-only reference cell.
func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad size entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseAlgs(s string) ([]core.Algorithm, error) {
	if s == "" {
		return nil, nil
	}
	var out []core.Algorithm
	for _, f := range strings.Split(s, ",") {
		a, err := core.AlgorithmByName(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
