package harness

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"npbgo"
	"npbgo/internal/fault"
	"npbgo/internal/report"
)

// atSecondCell runs sweep in the background and calls check while the
// sweep's second cell is held at harness.cell by a KindDelay rule on hit
// 2: the first cell's line must already be in the record by then.
func atSecondCell(t *testing.T, sweep func(), check func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		sweep()
	}()
	for fault.Hits("harness.cell") < 2 {
		select {
		case <-done:
			t.Fatal("sweep ended before its second cell started")
		case <-time.After(time.Millisecond):
		}
	}
	check()
	select {
	case <-done:
		t.Fatal("sweep ended during the check; the ordering was not exercised")
	default:
	}
	<-done
}

// failedLine returns the record's line for the serial cell, failing the
// test unless it is there and carries an error.
func failedLine(t *testing.T, path string) report.CellMetrics {
	t.Helper()
	cells := readRecord(t, path).Cells
	if len(cells) != 1 || cells[0].Threads != 0 || cells[0].Error == "" {
		t.Fatalf("record lines = %+v, want the failed serial cell alone", cells)
	}
	return cells[0]
}

// syncLog is a record file in memory. It logs every Write and Sync
// tagged with the number of cells started so far (harness.cell hits), so
// a test can see which cell each line and each sync belongs to.
type syncLog struct {
	buf bytes.Buffer
	ops []string
}

func (f *syncLog) Write(p []byte) (int, error) {
	f.ops = append(f.ops, fmt.Sprintf("write@%d", fault.Hits("harness.cell")))
	return f.buf.Write(p)
}

func (f *syncLog) Sync() error {
	f.ops = append(f.ops, fmt.Sprintf("sync@%d", fault.Hits("harness.cell")))
	return nil
}

func (f *syncLog) Close() error { return nil }

// TestFailedCellMetricsAreFlushed: the header and every cell line — the
// failed cell's too, with its error string — are written and synced
// before the next cell starts, so before the sweep returns or renders
// FAIL(...).
func TestFailedCellMetricsAreFlushed(t *testing.T) {
	fault.Activate(fault.Rule{Site: "harness.cell", Kind: fault.KindPanic})
	defer fault.Reset()
	f := &syncLog{}
	rec, err := startRecord(f, "test", []npbgo.Benchmark{npbgo.EP}, 'S', []int{1}, "")
	if err != nil {
		t.Fatal(err)
	}
	err = rec.RunSweep(npbgo.EP, 'S', []int{1}, Options{})
	if err == nil || len(rec.Cells) != 2 || rec.Cells[0].Error == "" || rec.Cells[1].Error != "" {
		t.Fatalf("sweep err = %v, lines = %+v; want the serial cell alone failed", err, rec.Cells)
	}
	want := []string{"write@0", "sync@0", "write@1", "sync@1", "write@2", "sync@2"}
	if !slices.Equal(f.ops, want) {
		t.Fatalf("record ops = %v, want %v: each line synced before the next cell starts", f.ops, want)
	}
	recs, err := report.ReadBenchRecords(&f.buf)
	if err != nil || len(recs) != 1 || len(recs[0].Cells) != 2 {
		t.Fatalf("record does not read back: %d records, err %v", len(recs), err)
	}
	if m := recs[0].Cells[0]; m.Benchmark != "EP" || m.Threads != 0 || m.Error == "" {
		t.Fatalf("failed cell line incomplete: %+v", m)
	}
}

// TestCancelledCellsStayPending: cancelling the sweep (^C, SIGTERM)
// mid-cell writes no line for the interrupted cell or the ones after it,
// so a resume runs them; the cell finished before the cancel keeps its
// line.
func TestCancelledCellsStayPending(t *testing.T) {
	fault.Activate(fault.Rule{Site: "harness.cell", Kind: fault.KindDelay, On: 2, Sleep: 300 * time.Millisecond})
	defer fault.Reset()
	threads := []int{1, 2}
	rec, path := newRecord(t, []npbgo.Benchmark{npbgo.EP}, threads)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var err error
	atSecondCell(t, func() { err = rec.RunSweep(npbgo.EP, 'S', threads, Options{Context: ctx}) }, cancel)
	if err == nil || !strings.Contains(err.Error(), "EP.S threads=1") || !strings.Contains(err.Error(), "EP.S threads=2") {
		t.Fatalf("sweep err = %v; want the t1 and t2 cells cancelled", err)
	}
	// A cancelled cell has no line, so it renders "-", pending, as a
	// resume will run it.
	if row := tableRow(SuiteTable("T", rec), "EP.S"); len(row) != 5 || row[2] != "-" || row[3] != "-" {
		t.Fatalf("cancelled cells do not render pending: %q", row)
	}
	rec.Close()
	re, _, err := ResumeRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var pending []CellKey
	for _, k := range PlannedCells(re.BenchRecord) {
		if _, ok := re.Cell(k); !ok {
			pending = append(pending, k)
		}
	}
	if want := []CellKey{{"EP", "S", 1}, {"EP", "S", 2}}; !slices.Equal(pending, want) {
		t.Fatalf("pending after a cancel = %v, want %v", pending, want)
	}
}
