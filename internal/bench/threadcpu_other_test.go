//go:build !linux

package bench

import (
	"testing"
	"time"
)

var threadCPUEpoch = time.Now()

// threadCPU falls back to monotonic wall time where the OS offers no
// per-thread CPU clock through package syscall.
func threadCPU(*testing.T) time.Duration { return time.Since(threadCPUEpoch) }
