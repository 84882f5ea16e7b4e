package main

import (
	"syscall"
	"time"
	"unsafe"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sleepFor blocks the calling thread in the kernel for about d. The
// pacer uses it instead of time.Sleep because the Go runtime rounds an
// idle wait below 1ms up to 1ms, which would release packets in
// millisecond bursts; nanosleep wakes within about 60µs.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake only shortens the wait; the pacer re-reads the clock
}

// threadCPUTime is the calling thread's CPU time in nanoseconds
// (CLOCK_THREAD_CPUTIME_ID).
func threadCPUTime() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
