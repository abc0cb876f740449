//go:build linux

package obs

import (
	"syscall"
	"time"
)

// processCPUTime returns the CPU time (user + system) all the process's
// threads have used, via getrusage(RUSAGE_SELF): a stage's kernel workers
// run on other threads than the caller's.
func processCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
