package harness

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"npbgo"
)

// admit is the sweep's memory admission guard, always on: before a
// cell launches, its estimated working set (npbgo.Config.FootprintBytes)
// is checked against the machine's available memory, and a cell that
// cannot fit comes back as a *SkipError, rendered as SKIP(memory: need
// X, have Y), instead of being allowed to OOM the sweep. This is the
// paper's FT anomaly generalized: FT class A was simply unrunnable on
// the 256 MB machines (§5), and the honest outcome is a reasoned skip,
// not a dead run. A cell is admitted if its footprint fits inside
// memHeadroom of available memory. The guard fails open — an unknown
// footprint or an unreadable probe admits the cell, because a guess
// must never block a runnable run.
func admit(cfg npbgo.Config) *SkipError {
	need, err := cfg.FootprintBytes()
	if err != nil {
		return nil // unknown footprint: fail open
	}
	avail, ok := availableMemory()
	if !ok {
		return nil // no probe on this platform: fail open
	}
	have := uint64(float64(avail) * memHeadroom)
	if need > have {
		return &SkipError{Need: need, Have: have}
	}
	return nil
}

// memHeadroom is the fraction of available memory a cell may claim.
// Benchmark footprints are dominant-array estimates, so the slack
// absorbs what they do not count.
const memHeadroom = 0.8

// availableMemory is the guard's probe; tests substitute it.
var availableMemory = memAvailable

// memAvailable reports the bytes of memory the kernel estimates are
// available for new allocations without swapping (/proc/meminfo
// MemAvailable). ok is false where the probe does not exist, and the
// guard fails open.
func memAvailable() (uint64, bool) {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "MemAvailable:" {
			kb, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return 0, false
			}
			return kb * 1024, true
		}
	}
	return 0, false
}

// formatBytes renders a byte count in the nearest binary unit with one
// decimal, as SKIP cells speak it.
func formatBytes(n uint64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := uint64(unit), 0
	for v := n / unit; v >= unit && exp < 4; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTP"[exp])
}
