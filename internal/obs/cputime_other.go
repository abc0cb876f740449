//go:build !linux

package obs

import "time"

// processCPUTime is unavailable off Linux: attribution still reports
// allocations and transfer bytes, with CPU time pinned at zero.
func processCPUTime() time.Duration { return 0 }
