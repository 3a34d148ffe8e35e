package harness

import (
	"os"
	"path/filepath"
	"testing"

	"npbgo/internal/trace"
)

// TestTraceDirWritesValidFilePerCell: a sweep with TraceDir set leaves
// one validating Perfetto file per cell, serial baseline included, and
// the kept Run carries its snapshot.
func TestTraceDirWritesValidFilePerCell(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces") // exercises MkdirAll too
	sw, err := RunSweepOpts("IS", 'S', []int{2}, Options{TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sw.Runs {
		if r.Trace == nil {
			t.Fatalf("cell %s has no trace snapshot", cellName(r.Threads))
		}
	}
	for _, name := range []string{"IS.S.serial.trace.json", "IS.S.t2.trace.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("expected trace file missing: %v", err)
		}
		if _, err := trace.Validate(data); err != nil {
			t.Fatalf("%s fails validation: %v", name, err)
		}
	}
}

// TestNoTraceDirNoSnapshot: tracing stays off unless asked for.
func TestNoTraceDirNoSnapshot(t *testing.T) {
	sw, err := RunSweepOpts("IS", 'S', nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sw.Runs {
		if r.Trace != nil {
			t.Fatal("Run.Trace set without Options.TraceDir")
		}
	}
}
