package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// The host readings explain a set of runs that disagrees; none of them
// is a property of the code under test. All are Linux /proc and /sys
// reads that degrade to zero values elsewhere.

// cpuJiffies returns the steal and total jiffies of the aggregate "cpu"
// line of /proc/stat.
func cpuJiffies() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// cacheSize reads one cache level's size of cpu0 from sysfs ("2048K").
func cacheSize(level int) string {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(lv)) == strconv.Itoa(level) {
			if sz, err := os.ReadFile(dir + "size"); err == nil {
				return strings.TrimSpace(string(sz))
			}
		}
	}
	return "unknown"
}

// oversubscribed reports whether the workloads' two threads have fewer
// than two processors to run on, in which case every two-thread number
// is a time-slicing measurement and must not be read as scaling.
func oversubscribed() bool { return runtime.GOMAXPROCS(0) < 2 }
