// Environment provenance: the host facts that make performance records
// comparable — or incomparable — across machines. A bench record's
// Mop/s, counters and profiles only mean something relative to the Go
// toolchain, the GC setting, the kernel and the silicon they ran on, so
// every record carries them in its header (and a cell line written by a
// resume on another host carries that host's, where it differs).
package report

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// EnvInfo is one execution environment. All fields are scalars so two
// EnvInfo values compare with ==; a resumed record relies on that to
// stamp a cell line only when its host differs from the header's.
type EnvInfo struct {
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	// GOGC is the garbage-collector target the process started under
	// ("100" when the variable is unset — the runtime default; "off"
	// disables collection).
	GOGC string `json:"gogc"`
	// Kernel is the running kernel release (/proc/sys/kernel/osrelease);
	// empty where the proc interface is unavailable.
	Kernel string `json:"kernel,omitempty"`
	// CPUModel is the first "model name" of /proc/cpuinfo; empty where
	// unavailable (some arm64 kernels expose no model name).
	CPUModel string `json:"cpu_model,omitempty"`
}

// CollectEnv snapshots the current process's environment.
func CollectEnv() EnvInfo {
	return EnvInfo{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOGC:       gogcSetting(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		CPUModel:   cpuModel("/proc/cpuinfo"),
	}
}

// gogcSetting reports the GOGC value the runtime started with; unset
// means the documented default of 100.
func gogcSetting() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}

// firstLine reads the first line of a proc-style one-line file, "" on
// any failure (provenance degrades to absence, never to an error — a
// record from a platform without procfs is still a record).
func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

// cpuModel extracts the first "model name" value of a cpuinfo file.
func cpuModel(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		if strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}
