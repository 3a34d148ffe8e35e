// Per-cell profile capture via runtime/pprof. The harness starts a
// capture immediately before a cell executes and stops it immediately
// after — outside the benchmark's own timed region, per the house rule
// that instrumentation must never sit inside what it measures (the
// timed section is unchanged; the CPU profiler's sampling interrupts
// are the only overhead, and they are on for the whole cell either
// way).
//
// A Capture survives the cell dying: Stop runs in a defer registered
// after the panic recovery, so a cell that panics still flushes and
// fsyncs whatever samples it accumulated before the failure is
// rendered — the profile of a dying cell is the post-mortem, exactly
// like the PR 9 metrics-flush ordering.
package profile

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// CPUSuffix and HeapSuffix name the two per-cell profile files:
// "<BENCH>.<class>.<cell>" + suffix, mirroring the trace file naming.
const (
	CPUSuffix  = ".cpu.pprof"
	HeapSuffix = ".heap.pprof"
)

// CellPaths returns the CPU and heap profile paths of one labeled cell
// inside dir — the single naming authority, shared by the capturing
// side (harness, isolate child) and the collecting side (harness
// parent, npbperf).
func CellPaths(dir, label string) (cpu, heap string) {
	return filepath.Join(dir, label+CPUSuffix), filepath.Join(dir, label+HeapSuffix)
}

// Capture is one in-flight per-cell profile capture. The zero value is
// not useful; a nil *Capture is the disabled state and every method
// no-ops on it, matching the team probe's nil-disabled contract.
type Capture struct {
	cpuPath  string
	heapPath string
	cpuFile  *os.File
}

// Start creates dir if needed and begins a CPU profile capture for the
// labeled cell. Exactly one capture can be active per process
// (runtime/pprof's own rule); the harness runs cells sequentially, so
// this never contends.
func Start(dir, label string) (*Capture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	cpu, heap := CellPaths(dir, label)
	f, err := os.Create(cpu)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(cpu)
		return nil, fmt.Errorf("profile: %w", err)
	}
	return &Capture{cpuPath: cpu, heapPath: heap, cpuFile: f}, nil
}

// Stop ends the capture: the CPU profile is stopped, flushed and
// fsync'd, then the allocation profile ("allocs", every allocation
// since process start) is written and fsync'd next to it. Stop is
// idempotent and nil-safe, and returns the first error while still
// attempting every remaining step — a broken heap write must not lose
// an already-complete CPU profile.
func (c *Capture) Stop() error {
	if c == nil || c.cpuFile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = fmt.Errorf("profile: %w", err)
		}
	}
	keep(c.cpuFile.Sync())
	keep(c.cpuFile.Close())
	c.cpuFile = nil

	// One GC so the allocation profile reflects everything up to this
	// instant (the runtime publishes alloc stats at GC boundaries). This
	// runs strictly after the cell's timed region ended.
	runtime.GC()
	hf, err := os.Create(c.heapPath)
	if err != nil {
		keep(err)
		return first
	}
	keep(pprof.Lookup("allocs").WriteTo(hf, 0))
	keep(hf.Sync())
	keep(hf.Close())
	return first
}

// CPUPath and HeapPath report the capture's target files (valid even
// after Stop). Nil-safe: empty on a disabled capture.
func (c *Capture) CPUPath() string {
	if c == nil {
		return ""
	}
	return c.cpuPath
}

func (c *Capture) HeapPath() string {
	if c == nil {
		return ""
	}
	return c.heapPath
}
