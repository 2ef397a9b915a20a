package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The unloaded phases and the traced run's public-call timings run with
// every thread of the process on one CPU. With one request in flight
// nothing runs in parallel, and on a two-vCPU VM each wake-up that
// crosses vCPUs costs an inter-processor interrupt whose price swings
// with the host's load: unpinned, the hot round trip switched between
// ~37 and ~55 µs from one second to the next and its median moved by a
// third between runs; pinned at GOMAXPROCS 1, it stayed within a few
// per cent. (Pinned at
// GOMAXPROCS 2 the idle P's spinning thread competes for the one CPU,
// which is slower and no steadier.) The saturated phases run on every
// CPU at the default GOMAXPROCS, as ipcd does.

// maxProcs is the GOMAXPROCS the process started with.
var maxProcs = runtime.GOMAXPROCS(0)

// cpuMask is a Linux CPU affinity mask (up to 1024 CPUs).
type cpuMask [16]uint64

// affinity is the process's CPU set at start and a one-CPU set within
// it; ok is false where affinity cannot be read, and pinning is then
// skipped.
var affinity = func() (a struct {
	all, one cpuMask
	ok       bool
}) {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		unsafe.Sizeof(a.all), uintptr(unsafe.Pointer(&a.all)))
	if e != 0 {
		return a
	}
	for i, w := range a.all {
		if w != 0 {
			a.one[i] = w & -w // the lowest CPU in the set
			a.ok = true
			break
		}
	}
	return a
}()

// pinThreads moves every thread of the process onto one CPU with
// GOMAXPROCS 1 (on), or back onto the CPUs it started with at the
// default GOMAXPROCS (off). Threads the runtime starts
// later inherit the mask of the thread that starts them, so every
// switch re-applies the mask to all threads. Failures leave the
// threads where they are: pinning steadies the figures but is not
// needed for correct ones.
func pinThreads(on bool) {
	if !affinity.ok {
		return
	}
	m, procs := affinity.all, maxProcs
	if on {
		m, procs = affinity.one, 1
	}
	runtime.GOMAXPROCS(procs)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread that exits meanwhile answers ESRCH; nothing to do.
		_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid),
			unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	}
}
