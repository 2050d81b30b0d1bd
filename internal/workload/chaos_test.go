package workload

import (
	"strings"
	"testing"
	"time"

	"ulipc/internal/core"
)

// TestChaosCellSurvivesCrashes runs one seeded cell with aggressive
// crash and wake-mutation rates: the cell must stay live (no deadlock),
// leak nothing, and actually exercise the injection (at least one fault
// fired with these rates).
func TestChaosCellSurvivesCrashes(t *testing.T) {
	res, err := RunChaosCell(ChaosConfig{
		Alg:       core.BSW,
		Clients:   4,
		Msgs:      100,
		Seed:      1234,
		CrashRate: 0.05,
		DropRate:  0.10,
		DupRate:   0.05,
		DelayRate: 0.05,
		Watchdog:  30 * time.Second,
	})
	if err != nil {
		t.Fatalf("chaos cell: %v (result %+v)", err, res)
	}
	if res.Deadlocked {
		t.Fatalf("cell deadlocked: %+v", res)
	}
	if res.PoolLeaked != 0 {
		t.Fatalf("pool leaked %d refs: %+v", res.PoolLeaked, res)
	}
	if res.Crashes+res.WakeDrops+res.WakeDups+res.WakeDelays == 0 {
		t.Fatalf("no faults injected at these rates; the cell exercised nothing: %+v", res)
	}
	if res.Crashes > 0 && res.PeerDeaths == 0 {
		t.Fatalf("crashes without peer-death detection: %+v", res)
	}
}

// TestChaosCellCleanRun is the control: zero fault rates must complete
// every round trip with no recovery activity — the chaos plumbing
// itself costs the workload nothing.
func TestChaosCellCleanRun(t *testing.T) {
	const clients, msgs = 3, 100
	res, err := RunChaosCell(ChaosConfig{
		Alg:      core.BSLS,
		Clients:  clients,
		Msgs:     msgs,
		Seed:     1,
		Watchdog: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("clean cell: %v (result %+v)", err, res)
	}
	if res.Completed != clients*msgs {
		t.Fatalf("clean cell completed %d/%d round trips: %+v", res.Completed, clients*msgs, res)
	}
	if res.Crashes != 0 || res.PeerDeaths != 0 {
		t.Fatalf("clean cell recorded faults: %+v", res)
	}
}

// TestChaosBenchShortSweep runs a reduced matrix end to end and pins
// its composition: the classic matrix, then the payload, shard-kill and
// overload-kill cells, in that order, cell i seeded base+i.
func TestChaosBenchShortSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	var progress strings.Builder
	rep, err := RunChaosBench(ChaosOptions{
		Algs:     []core.Algorithm{core.BSW, core.BSLS},
		Clients:  []int{2, 4},
		Msgs:     50,
		Seed:     99,
		PaySizes: []int{1024},
	}, &progress)
	if err != nil {
		t.Fatalf("chaos sweep: %v\n%s", err, progress.String())
	}
	want := []struct {
		label string
		seed  int64
	}{
		{"chaos/BSW/2c/seed99", 99},
		{"chaos/BSW/4c/seed100", 100},
		{"chaos/BSLS/2c/seed101", 101},
		{"chaos/BSLS/4c/seed102", 102},
		{"chaos/BSW/4c/seed103/p1024", 103},
		{"chaos/BSLS/4c/seed104/p1024", 104},
		{"chaos/shardkill/BSW/4c/2s", 105},
		{"chaos/shardkill/BSLS/4c/2s", 106},
		{"chaos/overloadkill/BSW/4c/seed107/p64", 107},
		{"chaos/overloadkill/BSLS/4c/seed108/p64", 108},
	}
	if len(rep.Cells) != len(want) {
		t.Fatalf("report has %d cells, want %d", len(rep.Cells), len(want))
	}
	for i, c := range rep.Cells {
		if c.Label != want[i].label || c.Seed != want[i].seed {
			t.Errorf("cell %d is (%s, %d), want (%s, %d)", i, c.Label, c.Seed, want[i].label, want[i].seed)
		}
		if c.Error != "" {
			t.Fatalf("cell %s failed: %s", c.Label, c.Error)
		}
		if strings.Contains(c.Label, "overloadkill") && (c.Sheds == 0 || c.Overloads == 0) {
			t.Errorf("overload-kill cell %s recorded no overload (sheds %d, rejects %d)",
				c.Label, c.Sheds, c.Overloads)
		}
	}
}

// TestChaosCellWatchdogVerdict: each chaos cell run under a watchdog
// far too short for its script must fail with Deadlocked set and an
// error naming the deadlock, not pass on a partial run.
func TestChaosCellWatchdogVerdict(t *testing.T) {
	cfg := ChaosConfig{Alg: core.BSW, Clients: 4, Msgs: 1_000_000, Seed: 3, Watchdog: 20 * time.Millisecond}
	cells := []struct {
		name string
		run  func() (ChaosResult, error)
	}{
		{"classic", func() (ChaosResult, error) { return RunChaosCell(cfg) }},
		{"shardkill", func() (ChaosResult, error) { return RunChaosShardKill(cfg, 2) }},
		{"overloadkill", func() (ChaosResult, error) { return RunChaosOverloadKill(cfg) }},
	}
	for _, c := range cells {
		res, err := c.run()
		if err == nil {
			t.Fatalf("%s: 4M round trips in 20ms passed: %+v", c.name, res)
		}
		if !res.Deadlocked || !strings.Contains(err.Error(), "deadlocked") || !strings.Contains(res.Error, "deadlocked") {
			t.Errorf("%s: want a deadlock verdict, got Deadlocked=%v err=%v", c.name, res.Deadlocked, err)
		}
	}
}

// TestChaosShardKillCell pins the shard-kill contract: with strict lane
// ownership, killing one of three shards aborts exactly the clients
// homed to it (each seeing ErrPeerDead on a post-kill send), while the
// survivors complete every round trip and the dead shard's request
// lanes end up drained.
func TestChaosShardKillCell(t *testing.T) {
	const clients, shards, msgs, warmup = 6, 3, 90, 8
	res, err := RunChaosShardKill(ChaosConfig{
		Alg:      core.BSW,
		Clients:  clients,
		Msgs:     msgs,
		Seed:     5,
		Watchdog: 30 * time.Second,
	}, shards)
	if err != nil {
		t.Fatalf("shard-kill cell: %v (result %+v)", err, res)
	}
	if res.Deadlocked {
		t.Fatalf("cell deadlocked: %+v", res)
	}
	victims := clients / shards // clients homed to shard 0
	if res.Aborted != victims {
		t.Fatalf("aborted %d clients, want the %d homed to the dead shard: %+v", res.Aborted, victims, res)
	}
	survivors := clients - victims
	want := int64(survivors*msgs + victims*warmup)
	if res.Completed != want {
		t.Fatalf("completed %d round trips, want %d (survivors full scripts + victim warm-ups): %+v",
			res.Completed, want, res)
	}
	if res.PeerDeaths == 0 {
		t.Fatalf("no peer-death detected for the killed shard: %+v", res)
	}
}

// TestChaosOverloadKillCell pins the overload-kill contract: a client
// SIGKILLed mid-overload (sheds and admission rejects in flight,
// payload leases riding the traffic) must cost nothing durable — the
// sweeper reclaims its stranded lease and orphaned replies, the
// server's reply path drops (and claim-frees) what it sends the corpse,
// and after teardown every node pool and the slab arena are whole.
func TestChaosOverloadKillCell(t *testing.T) {
	res, err := RunChaosOverloadKill(ChaosConfig{
		Alg:      core.BSLS,
		Clients:  4,
		Msgs:     2000,
		Seed:     9,
		Watchdog: 60 * time.Second,
		PaySize:  64,
	})
	if err != nil {
		t.Fatalf("overload-kill cell: %v (result %+v)", err, res)
	}
	if res.Sheds == 0 || res.Overloads == 0 {
		t.Fatalf("cell never overloaded: %+v", res)
	}
	if res.PeerDeaths == 0 {
		t.Fatalf("victim's death never recovered: %+v", res)
	}
	if res.OrphanBlocks == 0 {
		t.Fatalf("stranded lease not reclaimed: %+v", res)
	}
	if res.PoolLeaked != 0 || res.BlockLeaked != 0 {
		t.Fatalf("leak past the sweeper: %+v", res)
	}
}
