package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_setaffinity mask: room for 1024 CPUs.
type cpuSet [16]uint64

// allowed is the CPUs this process was started with.
var allowed = func() cpuSet {
	var m cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		panic(fmt.Sprintf("sched_getaffinity: %v", errno))
	}
	return m
}()

// confined is whether confine has this process on one CPU.
var confined bool

// confine restricts this process, and every process it starts from now
// on, to one CPU — the first of those it was started with — or, for
// cores above 1, lifts that restriction. GOMAXPROCS bounds the
// goroutines of one process; only this bounds two processes together.
func confine(cores int) error {
	if (cores == 1) == confined {
		return nil
	}
	m := allowed
	if cores == 1 {
		m = cpuSet{}
		for i, word := range allowed {
			if word != 0 {
				m[i] = word & -word // lowest set bit
				break
			}
		}
	}
	// Threads inherit the mask of the thread that creates them, so after
	// one pass over the threads that exist every later one is confined
	// too; a second pass catches a thread created during the first.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				return err
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if errno != 0 && !errors.Is(errno, syscall.ESRCH) { // ESRCH: the thread has exited
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	confined = cores == 1
	return nil
}
