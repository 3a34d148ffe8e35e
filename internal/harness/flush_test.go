package harness

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"npbgo"
	"npbgo/internal/fault"
	"npbgo/internal/journal"
	"npbgo/internal/report"
)

// recordingWriter is an in-memory metrics sink that logs the order of
// Write and Flush calls, and optionally fires a hook on first Write —
// the hook runs at exactly the point in the sweep loop where the cell's
// metrics line has landed but the journal Finish has not yet happened.
type recordingWriter struct {
	buf          bytes.Buffer
	ops          []string
	onFirstWrite func()
	wrote        bool
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.ops = append(w.ops, "write")
	n, err := w.buf.Write(p)
	if !w.wrote {
		w.wrote = true
		if w.onFirstWrite != nil {
			w.onFirstWrite()
		}
	}
	return n, err
}

func (w *recordingWriter) Flush() error {
	w.ops = append(w.ops, "flush")
	return nil
}

// failedCellLines decodes the writer's JSONL and returns the metrics of
// cells recorded with an error.
func failedCellLines(t *testing.T, buf *bytes.Buffer) []report.CellMetrics {
	t.Helper()
	var failed []report.CellMetrics
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m report.CellMetrics
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("metrics line is not valid JSON (torn write?): %v\n%s", err, line)
		}
		if m.Error != "" {
			failed = append(failed, m)
		}
	}
	return failed
}

// TestFailedCellMetricsAreFlushed: a cell that fails must still land in
// the metrics JSONL — with its error string — and the sink must be
// flushed for that cell, so the partial record survives a crash right
// after the failure.
func TestFailedCellMetricsAreFlushed(t *testing.T) {
	fault.Activate(fault.Rule{Site: "harness.cell", Kind: fault.KindPanic, Count: -1})
	defer fault.Reset()
	w := &recordingWriter{}
	sw, err := RunSweepOpts(npbgo.EP, 'S', nil, Options{Metrics: w})
	if err == nil {
		t.Fatal("persistently failing sweep reported success")
	}
	if len(sw.Runs) != 1 || sw.Runs[0].Err == nil {
		t.Fatalf("runs = %+v, want one failed cell", sw.Runs)
	}
	failed := failedCellLines(t, &w.buf)
	if len(failed) != 1 {
		t.Fatalf("failed metrics lines = %d, want 1", len(failed))
	}
	if failed[0].Benchmark != "EP" || failed[0].Error == "" {
		t.Fatalf("failed cell record incomplete: %+v", failed[0])
	}
	joined := strings.Join(w.ops, ",")
	if !strings.Contains(joined, "write,flush") {
		t.Fatalf("metrics ops = %v, want a flush immediately after the failed cell's write", w.ops)
	}
}

// TestFailedCellMetricsSurviveJournalAbort: the metrics line is written
// before journal.Finish, so a journal that dies at exactly that point —
// the sweep's hard-stop path — still leaves the failed cell's record in
// the metrics stream. The test closes the journal writer from the
// metrics sink's first Write, which runs between the cell's metrics
// append and its journal Finish.
func TestFailedCellMetricsSurviveJournalAbort(t *testing.T) {
	fault.Activate(fault.Rule{Site: "harness.cell", Kind: fault.KindPanic, Count: -1})
	defer fault.Reset()
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	jw, err := journal.Create(path, journal.Plan{
		Stamp: "test", Class: "S", Benchmarks: []string{"EP"},
		Planned: PlannedCells([]npbgo.Benchmark{npbgo.EP}, 'S', nil),
	})
	if err != nil {
		t.Fatalf("journal.Create: %v", err)
	}
	w := &recordingWriter{onFirstWrite: func() { jw.Close() }}
	sw, err := RunSweepOpts(npbgo.EP, 'S', nil, Options{Metrics: w, Journal: jw})
	if err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("sweep error = %v, want the journal abort", err)
	}
	if len(sw.Runs) != 1 {
		t.Fatalf("got %d runs, want the failed cell in the partial sweep", len(sw.Runs))
	}
	failed := failedCellLines(t, &w.buf)
	if len(failed) != 1 {
		t.Fatalf("failed metrics lines = %d, want 1: the dying cell's record must precede the journal abort", len(failed))
	}
	if !strings.Contains(strings.Join(w.ops, ","), "write,flush") {
		t.Fatalf("metrics ops = %v, want write then flush before the journal abort", w.ops)
	}
}
