package workload

import (
	"errors"
	"os"
	"testing"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/shm"
)

// TestMain lets the test binary double as the proc-cell worker: when
// the parent re-executes it with ULIPC_PROC_ROLE set, MaybeProcWorker
// runs the role and exits before any test does.
func TestMain(m *testing.M) {
	MaybeProcWorker()
	os.Exit(m.Run())
}

func skipIfNoMmap(t *testing.T, err error) {
	t.Helper()
	if errors.Is(err, shm.ErrMapUnsupported) {
		t.Skip("no mapped-segment backend on this platform")
	}
}

// Two real OS processes' worth of clients echo through a memfd arena
// with futex wake-ups — the tentpole end to end.
func TestProcCellClean(t *testing.T) {
	for _, alg := range []core.Algorithm{core.BSW, core.BSA} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			res, err := RunProcCell(ProcConfig{
				Alg:     alg,
				Clients: 2,
				Msgs:    300,
			})
			skipIfNoMmap(t, err)
			if err != nil {
				t.Fatal(err)
			}
			if res.Sent != 600 || res.Served != 600 {
				t.Fatalf("sent %d served %d, want 600/600", res.Sent, res.Served)
			}
			if res.All.MsgsSent < res.Sent || res.All.MsgsReceived < res.Served {
				t.Fatalf("All undercounts: MsgsSent %d < Sent %d or MsgsReceived %d < Served %d",
					res.All.MsgsSent, res.Sent, res.All.MsgsReceived, res.Served)
			}
			if res.PoolLeaked != 0 {
				t.Fatalf("pool leaked %d refs", res.PoolLeaked)
			}
			if res.Backend == "" {
				t.Fatal("worker did not report its futex backend")
			}
			if res.RTTMicros <= 0 || res.Throughput <= 0 {
				t.Fatalf("degenerate timings: %+v", res)
			}
		})
	}
}

// Cross-process payloads: leased blocks in the shared slab arena ride
// the lanes both ways — zero-copy (lease transfer) and the copy
// baseline — and the cell must end leak-free with a bytes/s figure.
func TestProcCellPayload(t *testing.T) {
	for _, payCopy := range []bool{false, true} {
		name := "zerocopy"
		if payCopy {
			name = "copy"
		}
		t.Run(name, func(t *testing.T) {
			res, err := RunProcCell(ProcConfig{
				Alg:     core.BSW,
				Clients: 2,
				Msgs:    300,
				PaySize: 1024,
				PayCopy: payCopy,
			})
			skipIfNoMmap(t, err)
			if err != nil {
				t.Fatal(err)
			}
			if res.Sent != 600 || res.Served != 600 {
				t.Fatalf("sent %d served %d, want 600/600", res.Sent, res.Served)
			}
			if res.PoolLeaked != 0 || res.BlockLeaked != 0 {
				t.Fatalf("leaked %d refs, %d payload blocks", res.PoolLeaked, res.BlockLeaked)
			}
			if res.BytesPerSec <= 0 {
				t.Fatalf("no payload bandwidth recorded: %+v", res)
			}
			t.Logf("%s: %.1f MB/s, fails=%d", name, res.BytesPerSec/1e6, res.All.BlockFails)
		})
	}
}

// SIGKILL the server mid-traffic: every surviving client must surface
// ErrPeerDead promptly — no hang — and the post-mortem audit must make
// the pool whole.
func TestProcChaosKillServer(t *testing.T) {
	res, err := RunProcChaosKill(ProcConfig{
		Alg:             core.BSW,
		Clients:         2,
		Seed:            42,
		KillServerAfter: 80 * time.Millisecond,
		Watchdog:        20 * time.Second,
	})
	skipIfNoMmap(t, err)
	if err != nil {
		t.Fatalf("chaos cell: %v\nresult: %+v", err, res)
	}
	if res.Detected != 2 || res.Hung != 0 {
		t.Fatalf("detected %d hung %d, want 2/0", res.Detected, res.Hung)
	}
	if res.PoolLeaked != 0 {
		t.Fatalf("pool leaked %d refs after reclaim", res.PoolLeaked)
	}
	if res.DetectMsMax <= 0 {
		t.Fatalf("no detection latency recorded: %+v", res)
	}
	t.Logf("chaos: completed=%d detect_max=%.1fms orphan_msgs=%d orphan_refs=%d backend=%s",
		res.Completed, res.DetectMsMax, res.OrphanMsgs, res.OrphanRefs, res.Backend)
}

// SIGKILL mid-lease: the server dies while payload blocks are claimed
// by it or in flight to it. Survivors surface ErrPeerDead, and the
// post-mortem reclaim walks the lifetable owner tags — zero blocks may
// stay missing from the arena.
func TestProcChaosKillServerPayload(t *testing.T) {
	res, err := RunProcChaosKill(ProcConfig{
		Alg:             core.BSW,
		Clients:         2,
		Seed:            7,
		PaySize:         1024,
		KillServerAfter: 80 * time.Millisecond,
		Watchdog:        20 * time.Second,
	})
	skipIfNoMmap(t, err)
	if err != nil {
		t.Fatalf("chaos cell: %v\nresult: %+v", err, res)
	}
	if res.Detected != 2 || res.Hung != 0 {
		t.Fatalf("detected %d hung %d, want 2/0", res.Detected, res.Hung)
	}
	if res.PoolLeaked != 0 || res.BlockLeaked != 0 {
		t.Fatalf("leaked %d refs, %d payload blocks after reclaim", res.PoolLeaked, res.BlockLeaked)
	}
	t.Logf("payload chaos: completed=%d orphan_blocks=%d detect_max=%.1fms",
		res.Completed, res.OrphanBlocks, res.DetectMsMax)
}

// Worker-spawn plumbing failure paths stay typed and non-panicking.
func TestProcCellBadConfig(t *testing.T) {
	if _, err := RunProcCell(ProcConfig{Alg: core.BSW, Clients: 0}); err == nil {
		t.Fatal("zero-client cell accepted")
	}
	if _, err := RunProcChaosKill(ProcConfig{Alg: core.BSW, Clients: 0}); err == nil {
		t.Fatal("zero-client chaos cell accepted")
	}
}
