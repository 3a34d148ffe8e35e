//go:build linux && amd64

package simd

import (
	"os"
	"strings"
	"testing"
)

// TestWidthMatchesCPUInfo holds the start-up probe to the flags the
// kernel reports in /proc/cpuinfo, which it lists only for features
// the OS has enabled: 8 with avx, avx512f and avx512dq, 4 with avx,
// else 1. Its log names the levels rowcheck.Modes runs on this host.
func TestWidthMatchesCPUInfo(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	want := 1
	switch {
	case flags["avx"] && flags["avx512f"] && flags["avx512dq"]:
		want = 8
	case flags["avx"]:
		want = 4
	}
	levels := map[int]string{1: "1", 4: "1 and 4", 8: "1, 4 and 8"}
	t.Logf("/proc/cpuinfo: avx %v, avx512f %v, avx512dq %v; simd.Width %d, so the kernels' tests run widths %s",
		flags["avx"], flags["avx512f"], flags["avx512dq"], Width, levels[Width])
	if Width != want {
		t.Errorf("simd.Width = %d, /proc/cpuinfo's flags give %d", Width, want)
	}
}
