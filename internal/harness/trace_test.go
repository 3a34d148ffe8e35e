package harness

import (
	"os"
	"path/filepath"
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
// one validating execution trace per cell, serial baseline included,
// and the kept Run carries its tracer.
func TestTraceDirWritesValidFilePerCell(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces") // exercises MkdirAll too
	sw, err := RunSweepOpts("IS", 'S', []int{2}, Options{TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sw.Runs {
		if r.Trace == nil {
			t.Fatalf("cell %s has no tracer", cellName(r.Threads))
		}
		if r.Trace.Data == nil {
			t.Skip("another execution tracer is running; the cells only annotated it")
		}
	}
	readTraces(t, dir, "IS.S.serial.trace", "IS.S.t2.trace")
}

// TestNoTraceDirNoSnapshot: tracing stays off unless asked for — no
// tracer on any run, and no trace file left behind.
func TestNoTraceDirNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	sw, err := RunSweepOpts("IS", 'S', nil, Options{ProfileDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sw.Runs {
		if r.Trace != nil {
			t.Fatal("Run.Trace set without Options.TraceDir")
		}
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "*.trace")); len(m) != 0 {
		t.Fatalf("trace files without Options.TraceDir: %v", m)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
}
