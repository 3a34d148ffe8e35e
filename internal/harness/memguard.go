package harness

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"npbgo"
)

// MemGuard is the sweep's memory admission controller: before a cell
// launches, its estimated working set (npbgo.Config.FootprintBytes) is
// checked against the machine's available memory, and a cell that
// cannot fit is recorded as SKIP(memory: need X, have Y) instead of
// being allowed to OOM mid-sweep. This is the paper's FT anomaly
// generalized: FT class A was simply unrunnable on the 256 MB machines
// (§5), and the honest outcome is a reasoned skip, not a dead run.
//
// The zero value is ready to use: it probes /proc/meminfo and admits a
// cell if its footprint fits inside memHeadroom of available memory. The guard fails open — an unknown footprint or an unreadable
// probe admits the cell, because a guess must never block a runnable
// run.
type MemGuard struct {
	// Available overrides the memory probe; tests inject it. The bool
	// reports whether the probe succeeded.
	Available func() (uint64, bool)
}

// memHeadroom is the fraction of available memory a cell may claim.
// Benchmark footprints are dominant-array estimates, so the slack
// absorbs what they do not count.
const memHeadroom = 0.8

// check admits or skips one cell. A skip comes back as *SkipError.
func (g *MemGuard) check(cfg npbgo.Config) error {
	need, err := cfg.FootprintBytes()
	if err != nil {
		return nil // unknown footprint: fail open
	}
	probe := g.Available
	if probe == nil {
		probe = AvailableMemory
	}
	avail, ok := probe()
	if !ok {
		return nil // no probe on this platform: fail open
	}
	have := uint64(float64(avail) * memHeadroom)
	if need > have {
		return &SkipError{Need: need, Have: have}
	}
	return nil
}

// AvailableMemory reports the bytes of memory the kernel estimates are
// available for new allocations without swapping (/proc/meminfo
// MemAvailable). ok is false where the probe does not exist, and the
// guard fails open.
func AvailableMemory() (uint64, bool) {
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

// FormatBytes renders a byte count in the nearest binary unit with one
// decimal, as SKIP cells and the -mem-limit flag speak it.
func FormatBytes(n uint64) string {
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

// ParseBytes parses a human byte size: a plain number (bytes) or a
// number with a B/KB/KiB/MB/MiB/GB/GiB/TB/TiB suffix, decimal and
// binary prefixes both meaning 1024 (benchmark memory talk is binary).
func ParseBytes(s string) (uint64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	mult := uint64(1)
	for _, suf := range []struct {
		tag string
		m   uint64
	}{
		{"TIB", 1 << 40}, {"TB", 1 << 40},
		{"GIB", 1 << 30}, {"GB", 1 << 30},
		{"MIB", 1 << 20}, {"MB", 1 << 20},
		{"KIB", 1 << 10}, {"KB", 1 << 10},
		{"B", 1},
	} {
		if strings.HasSuffix(t, suf.tag) {
			mult = suf.m
			t = strings.TrimSpace(strings.TrimSuffix(t, suf.tag))
			break
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("harness: bad byte size %q", s)
	}
	return uint64(v * float64(mult)), nil
}
