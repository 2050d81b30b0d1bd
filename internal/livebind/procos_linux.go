//go:build linux

// Kernel crossings in the cross-process binding follow one rule: a call
// that can block goes through the runtime (syscall.Syscall), a call that
// cannot does not (syscall.RawSyscall). Syscall tells the scheduler the
// thread may be gone a while, so sysmon can hand its P to another
// thread; that bookkeeping is wasted on a call that returns as soon as
// the kernel is done with it. sched_yield and FUTEX_WAKE never wait for
// an event and go raw; FUTEX_WAIT parks the thread and kill(pid, 0) is
// off the hot path, so both stay runtime-mediated.

package livebind

import "syscall"

// osYield is a real sched_yield(2): in the cross-process binding a yield
// must be visible to the kernel scheduler, not just the Go runtime —
// the peer that should run next lives in another process, which
// runtime.Gosched cannot help. The call never blocks, so it goes raw.
func osYield() {
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}

// pidAlive probes a peer process with the null signal. EPERM still
// proves existence (the process is alive but owned by someone else);
// only ESRCH proves death.
func pidAlive(pid int) bool {
	err := syscall.Kill(pid, 0)
	return err == nil || err == syscall.EPERM
}
