package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"ulipc"
)

// cpuTicks reads the aggregate "cpu" line of /proc/stat: the ticks the
// hypervisor stole from this VM, and all ticks. A run taken while the
// hypervisor withholds CPU shows it here. It is a diagnostic: where the
// line cannot be read both are 0, which stealPct reports as no steal.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is inside user.
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealPct is the share of the machine's CPU ticks stolen between two
// readings, in percent; 0 when the kernel does not report steal.
func stealPct(steal0, total0, steal1, total1 uint64) float64 {
	if total1 <= total0 {
		return 0
	}
	return 100 * float64(steal1-steal0) / float64(total1-total0)
}

func environment() string {
	return fmt.Sprintf("%s %s/%s nproc=%d futex_backend=%s",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), ulipc.FutexBackend)
}
