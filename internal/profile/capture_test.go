package profile

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// spin burns CPU so the profiler has something to sample.
func spin(d time.Duration) float64 {
	x := 1.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	return x
}

func TestCaptureRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := Start(dir, "EP.S.t1")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	spin(300 * time.Millisecond)
	if err := c.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	// Stop must be idempotent: a second call (the defer-plus-explicit
	// pattern in the harness) is a no-op.
	if err := c.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	cpu, heap := CellPaths(dir, "EP.S.t1")
	if c.CPUPath() != cpu || c.HeapPath() != heap {
		t.Fatalf("paths = %q %q, want %q %q", c.CPUPath(), c.HeapPath(), cpu, heap)
	}

	tab, err := Hot(cpu, false)
	if err != nil {
		t.Fatalf("Hot(cpu): %v", err)
	}
	if tab.Type != "cpu" || tab.Total <= 0 || len(tab.Funcs) == 0 {
		t.Fatalf("cpu table after 300ms of spinning = %+v", tab)
	}
	htab, err := Hot(heap, true)
	if err != nil {
		t.Fatalf("Hot(heap): %v", err)
	}
	if htab.Type != "alloc_space" || htab.Total <= 0 {
		t.Fatalf("heap table = %+v", htab)
	}
}

func TestCaptureNilDisabled(t *testing.T) {
	var c *Capture
	if err := c.Stop(); err != nil {
		t.Fatalf("nil Stop: %v", err)
	}
	if c.CPUPath() != "" || c.HeapPath() != "" {
		t.Fatal("nil capture reports paths")
	}
}

func TestCaptureCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "profiles")
	c, err := Start(dir, "IS.S.serial")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := c.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if _, err := os.Stat(c.CPUPath()); err != nil {
		t.Fatalf("cpu profile missing: %v", err)
	}
}

// A second Start while a capture is active must fail cleanly (one CPU
// profile per process is the runtime's rule) and must not leave a
// stray file locked.
func TestCaptureExclusive(t *testing.T) {
	dir := t.TempDir()
	c, err := Start(dir, "a")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer c.Stop()
	if _, err := Start(dir, "b"); err == nil {
		t.Fatal("second concurrent Start succeeded")
	}
	if err := c.Stop(); err != nil {
		t.Fatalf("Stop after failed second Start: %v", err)
	}
}
