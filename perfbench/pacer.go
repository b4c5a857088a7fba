package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer waits for the open loop's arrival times. Go's timers wake a
// sleeping goroutine up to a millisecond late when the process is partly
// idle (the network poller waits in whole milliseconds), and not at all
// while the garbage collector's dedicated worker holds the P that owns the
// timer. A Linux timerfd read through the network poller wakes the
// generator within microseconds instead.
type pacer struct {
	fd uintptr
	f  *os.File
}

// itimerspec mirrors the kernel's struct itimerspec.
type itimerspec struct{ interval, value syscall.Timespec }

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("perfbench: timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes os.File use the network poller;
	// calling f.Fd() would switch it back to blocking, so fd is kept.
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks the calling goroutine for d.
func (p *pacer) sleep(d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		return fmt.Errorf("perfbench: timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
