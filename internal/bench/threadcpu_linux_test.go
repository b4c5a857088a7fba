package bench

import (
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID, which package
// syscall does not name.
const clockThreadCPUTimeID = 3

// threadCPU returns the CPU time the calling OS thread has used. The
// kernel accounts it from the scheduler's runtime in nanoseconds, so time
// the thread spent descheduled — including a hypervisor stealing the vCPU
// — does not count, which is what makes two readings comparable on a noisy
// host. (getrusage(RUSAGE_THREAD) reports the same quantity but in whole
// scheduler ticks on many kernels, too coarse for runs of a few
// milliseconds.) The caller must hold runtime.LockOSThread between
// readings.
func threadCPU(t *testing.T) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		t.Fatalf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno)
	}
	return time.Duration(ts.Nano())
}
