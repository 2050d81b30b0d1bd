package experiment

import (
	"fmt"

	"ulipc/internal/chart"
	"ulipc/internal/core"
	"ulipc/internal/queue"
	"ulipc/internal/workload"
)

// RunQueues is ablation A2: the live runtime's round-trip throughput
// over the three queue implementations (the paper's two-lock Michael &
// Scott queue, the lock-free M&S queue, and the bounded MPMC ring that is
// the live runtime's default receive queue). Each kind is set
// explicitly, so the ablation does not follow the default. Run on
// the host, so absolute numbers depend on the machine executing the
// suite; the comparison across kinds is the point.
func RunQueues(opt Options) (*Report, error) {
	r := newReport("queues", "Queue implementation ablation (live runtime, host timing)",
		"the paper uses the two-lock M&S queue; this ablation checks the protocol stack over lock-free and ring alternatives")
	msgs := opt.msgs()

	t := &chart.Table{
		Title:   "Live round-trip throughput by queue kind (messages/ms, host-dependent)",
		Headers: []string{"queue", "1 client", "4 clients"},
	}
	for _, kind := range queue.Kinds() {
		var cells []string
		for _, n := range []int{1, 4} {
			res, err := workload.RunLive(workload.LiveConfig{
				Alg: core.BSLS, MaxSpin: 20, Clients: n, Msgs: msgs, QueueKind: kind,
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, f2(res.Throughput))
			r.Records[fmt.Sprintf("queues/%s/%d", kind, n)] = res.Throughput
		}
		t.AddRow(append([]string{kind.String()}, cells...)...)
	}
	r.Tables = append(r.Tables, t)
	r.note("Host timing: absolute values vary run to run; see bench_test.go for testing.B measurements with -benchmem.")
	return r, nil
}
