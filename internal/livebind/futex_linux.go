//go:build linux && !nofutex

package livebind

import (
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Real futex backend: FUTEX_WAIT/FUTEX_WAKE on a 32-bit word in shared
// memory. This is the only sleep/wake primitive that crosses address
// spaces — sync.Cond and channels are process-local, but a futex word in
// a MAP_SHARED page parks a thread in one process and lets a V from
// another process wake it with a single syscall.
//
// The shared (non-PRIVATE) futex opcodes are used deliberately: the
// PRIVATE variants skip the cross-process hash lookup and would silently
// fail to match waiters in other address spaces.

// FutexBackend names the wake primitive this binary was built with
// ("futex" or "poll"); recorded in bench reports so baselines from the
// two builds are never silently compared.
const FutexBackend = "futex"

const (
	futexOpWait = 0 // FUTEX_WAIT
	futexOpWake = 1 // FUTEX_WAKE
)

// futexWait parks the calling thread while *addr == val, for at most d
// (d <= 0 means no timeout). Returns spuriously on EINTR, EAGAIN (the
// word already changed) and timeout — callers always re-check their
// condition in a loop, so spurious returns are harmless.
func futexWait(addr *atomic.Uint32, val uint32, d time.Duration) {
	var tsp *syscall.Timespec
	if d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		tsp = &ts
	}
	_, _, _ = syscall.Syscall6(
		syscall.SYS_FUTEX,
		uintptr(unsafe.Pointer(addr)),
		futexOpWait,
		uintptr(val),
		uintptr(unsafe.Pointer(tsp)),
		0, 0,
	)
}

// futexWake wakes up to n threads parked on addr — in this process or
// any other that mapped the same page. Waking never blocks the caller,
// so it goes raw (procos_linux.go states the rule); futexWait above
// parks the thread and must stay runtime-mediated.
func futexWake(addr *atomic.Uint32, n int) {
	_, _, _ = syscall.RawSyscall6(
		syscall.SYS_FUTEX,
		uintptr(unsafe.Pointer(addr)),
		futexOpWake,
		uintptr(n),
		0, 0, 0,
	)
}
