package harness

import (
	"os"
	"path/filepath"
	rtrace "runtime/trace"
	"testing"

	"npbgo/internal/trace"
)

// readTraces reads each named trace file in dir with the reader, which
// validates it.
func readTraces(t *testing.T, dir string, names ...string) {
	t.Helper()
	for _, name := range names {
		f, err := trace.Read(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(f.Tasks) != 1 {
			t.Fatalf("%s: tasks %v, want the cell's run alone", name, f.Tasks)
		}
	}
}

// TestTraceDirWritesValidFilePerCell: a sweep with TraceDir set leaves
// one validating execution trace per cell, serial baseline included.
func TestTraceDirWritesValidFilePerCell(t *testing.T) {
	if rtrace.IsEnabled() {
		t.Skip("another execution tracer is running; the cells only annotate it")
	}
	dir := filepath.Join(t.TempDir(), "traces") // exercises MkdirAll too
	if _, err := memSweep("IS", []int{2}, Options{TraceDir: dir}); err != nil {
		t.Fatal(err)
	}
	readTraces(t, dir, "IS.S.serial.trace", "IS.S.t2.trace")
}

// TestNoTraceDirNoSnapshot: tracing stays off unless asked for — no
// trace file left behind.
func TestNoTraceDirNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	if _, err := memSweep("IS", nil, Options{ProfileDir: dir}); err != nil {
		t.Fatal(err)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "*.trace")); len(m) != 0 {
		t.Fatalf("trace files without Options.TraceDir: %v", m)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
}
