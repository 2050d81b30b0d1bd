package workload

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/machine"
	"ulipc/internal/queue"
)

func runLive(t *testing.T, cfg LiveConfig) Result {
	t.Helper()
	if cfg.Msgs == 0 {
		cfg.Msgs = 200
	}
	if cfg.Clients == 0 {
		cfg.Clients = 1
	}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatalf("RunLive(%+v): %v", cfg, err)
	}
	return res
}

func TestLiveAllAlgorithms(t *testing.T) {
	for _, alg := range core.Algorithms() {
		for _, clients := range []int{1, 4} {
			res := runLive(t, LiveConfig{Alg: alg, Clients: clients, Msgs: 300})
			if res.Throughput <= 0 {
				t.Errorf("live %s/%dc: throughput %.2f", alg, clients, res.Throughput)
			}
		}
	}
}

func TestLiveAllQueueKinds(t *testing.T) {
	for _, kind := range queue.Kinds() {
		res := runLive(t, LiveConfig{Alg: core.BSLS, Clients: 3, Msgs: 300, QueueKind: kind})
		if res.TotalMsgs != 900 {
			t.Errorf("live %s: total %d", kind, res.TotalMsgs)
		}
	}
}

func TestLiveSpinFlavour(t *testing.T) {
	res := runLive(t, LiveConfig{Alg: core.BSLS, Clients: 2, Msgs: 200, SpinIters: 50})
	if res.Throughput <= 0 {
		t.Errorf("throughput %.2f", res.Throughput)
	}
}

func TestLiveThrottle(t *testing.T) {
	res := runLive(t, LiveConfig{Alg: core.BSLS, Clients: 5, Msgs: 200, MaxSpin: 2, Throttle: 2})
	if res.TotalMsgs != 1000 {
		t.Errorf("total %d, want 1000 (throttled run must not lose messages)", res.TotalMsgs)
	}
}

func TestLiveSmallQueueExercisesFullPath(t *testing.T) {
	// Capacity 2 with 4 clients forces queue-full; the compressed
	// sleep(1) keeps the test fast while exercising the flow-control
	// path.
	res := runLive(t, LiveConfig{
		Alg: core.BSW, Clients: 4, Msgs: 100, QueueCap: 2,
		SleepScale: 100 * time.Microsecond,
	})
	if res.TotalMsgs != 400 {
		t.Errorf("total %d, want 400", res.TotalMsgs)
	}
}

func TestLiveBSSSingleQueueCapOne(t *testing.T) {
	res := runLive(t, LiveConfig{Alg: core.BSS, Clients: 2, Msgs: 100, QueueCap: 1})
	if res.TotalMsgs != 200 {
		t.Errorf("total %d, want 200", res.TotalMsgs)
	}
}

// TestLiveGroupSharded drives the group-mode path: sharded system,
// batched sends, each client on its home shard, every reply checked in
// order. TotalMsgs counts replies actually served across all shards.
func TestLiveGroupSharded(t *testing.T) {
	for _, tc := range []struct {
		alg                 core.Algorithm
		shards, batch, msgs int
	}{
		{core.BSW, 2, 16, 192},
		{core.BSW, 3, 16, 192},
		{core.BSLS, 2, 16, 192},
		{core.BSLS, 3, 16, 192},
		{core.BSLS, 2, 8, 128},
	} {
		t.Run(fmt.Sprintf("%s/%dshards/batch%d", tc.alg, tc.shards, tc.batch), func(t *testing.T) {
			res := runLive(t, LiveConfig{
				Alg: tc.alg, Clients: 4, Msgs: tc.msgs, Shards: tc.shards, Batch: tc.batch,
				Watchdog: 30 * time.Second,
			})
			if res.TotalMsgs != int64(4*tc.msgs) {
				t.Errorf("total %d, want %d", res.TotalMsgs, 4*tc.msgs)
			}
			if res.Throughput <= 0 {
				t.Errorf("throughput %.2f", res.Throughput)
			}
		})
	}
}

// TestRunLiveWatchdogTrip: a run far longer than its watchdog, on the
// single-server, the group and the worker-pool path, returns an error
// naming the deadline and its partial count instead of hanging.
func TestRunLiveWatchdogTrip(t *testing.T) {
	for _, path := range []string{"single", "group", "pool"} {
		cfg := LiveConfig{
			Alg: core.BSW, Clients: 2,
			Msgs:     2_000_000, // far more than fits in the deadline
			Watchdog: 25 * time.Millisecond,
		}
		var res Result
		var err error
		switch path {
		case "group":
			cfg.Shards = 2
			res, err = RunLive(cfg)
		case "pool":
			res, err = RunLivePool(cfg, 2)
		default:
			res, err = RunLive(cfg)
		}
		if err == nil {
			t.Fatalf("%s: 4M round trips in 25ms — watchdog never tripped", path)
		}
		if !strings.Contains(err.Error(), "deadline exceeded") {
			t.Errorf("%s: error does not name the deadline: %v", path, err)
		}
		if res.Label == "" || res.TotalMsgs >= 4_000_000 {
			t.Errorf("%s: want the partial result, got %+v", path, res)
		}
	}
}

func TestLivePoolAllAlgorithms(t *testing.T) {
	for _, alg := range core.Algorithms() {
		res, err := RunLivePool(LiveConfig{Alg: alg, Clients: 3, Msgs: 150, MaxSpin: 4}, 2)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.TotalMsgs != 450 {
			t.Errorf("%s: total %d", alg, res.TotalMsgs)
		}
	}
}

func TestLivePoolValidation(t *testing.T) {
	if _, err := RunLivePool(LiveConfig{Clients: 1, Msgs: 1}, 0); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := RunLivePool(LiveConfig{Clients: 0, Msgs: 1}, 1); err == nil {
		t.Error("0 clients accepted")
	}
}

// TestQuickSimConservation drives random small sim configurations and
// checks the conservation invariants: the measured totals always match
// clients*msgs and determinism holds per configuration.
func TestQuickSimConservation(t *testing.T) {
	check := func(algSel, clientSel, msgSel, spinSel uint8, sysv bool) bool {
		algs := core.Algorithms()
		cfg := Config{
			Machine: machine.SGIIndy(),
			Alg:     algs[int(algSel)%len(algs)],
			Clients: 1 + int(clientSel)%4,
			Msgs:    20 + int(msgSel)%60,
			MaxSpin: 1 + int(spinSel)%20,
		}
		if sysv {
			cfg.Transport = TransportSysV
		}
		a, err := RunSim(cfg)
		if err != nil {
			return false
		}
		if a.TotalMsgs != int64(cfg.Clients*cfg.Msgs) {
			return false
		}
		b, err := RunSim(cfg)
		if err != nil {
			return false
		}
		return a.Duration == b.Duration && a.Throughput == b.Throughput
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
