package harness

// Crash-safety tests: the record kill/resume drill and the memory
// admission guard. The kill test is the package's centerpiece: it
// SIGKILLs a real recorded sweep mid-cell (run in a helper process) and
// proves that -resume completes exactly the planned cell set with no
// cell executed twice.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"npbgo"
	"npbgo/internal/fault"
	"npbgo/internal/report"
)

// TestHelperRecordedSweep is not a test: re-invoked by
// TestKillResumeJournal as a separate process, it runs a recorded sweep
// slowed by an injected per-cell delay so the parent can SIGKILL it
// mid-cell.
func TestHelperRecordedSweep(t *testing.T) {
	if os.Getenv("NPB_HARNESS_HELPER") != "recorded-sweep" {
		t.Skip("helper process entry point")
	}
	fault.Activate(fault.Rule{Site: "harness.cell", Kind: fault.KindDelay,
		Count: -1, Sleep: 500 * time.Millisecond})
	threads := []int{1, 2}
	rec, err := CreateRecord(os.Getenv("NPB_HARNESS_RECORD"), "helper", []npbgo.Benchmark{npbgo.CG}, 'S', threads, "")
	if err != nil {
		t.Fatalf("helper: %v", err)
	}
	rec.RunSweep(npbgo.CG, 'S', threads, Options{})
	rec.Close()
	os.Exit(0)
}

// TestKillResumeJournal is the crash drill on a -bench-json record:
// SIGKILL an in-flight recorded sweep, check that the partial
// record reads, resume from it, and require (a) one line per planned
// cell, no more, (b) the lines written before the kill to stand
// unchanged, and (c) their cells to have been replayed, not re-run.
func TestKillResumeJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("process kill drill in -short mode")
	}
	path := filepath.Join(t.TempDir(), "sweep.json")
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperRecordedSweep$")
	cmd.Env = append(os.Environ(),
		"NPB_HARNESS_HELPER=recorded-sweep",
		"NPB_HARNESS_RECORD="+path)
	if err := cmd.Start(); err != nil {
		t.Fatalf("start helper: %v", err)
	}
	// Let at least one cell line land, then pull the plug mid-sweep.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if data, err := os.ReadFile(path); err == nil && bytes.Count(data, []byte("\n")) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("helper recorded no finished cell within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Process.Kill() // SIGKILL: no deferred cleanup, no close
	cmd.Wait()

	pre := readRecord(t, path) // the partial record reads as it stands
	rec, _, err := ResumeRecord(path)
	if err != nil {
		t.Fatalf("record did not survive SIGKILL: %v", err)
	}
	planned := PlannedCells(rec.BenchRecord)
	if len(pre.Cells) == len(planned) {
		t.Logf("note: helper finished all %d cells before the kill; resume is a pure replay", len(planned))
	}
	err = rec.RunSweep(npbgo.CG, 'S', rec.Threads, Options{})
	rec.Close()
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}

	final := readRecord(t, path)
	if len(final.Cells) != len(planned) {
		t.Fatalf("record holds %d cell lines, plan has %d", len(final.Cells), len(planned))
	}
	for _, k := range planned {
		n := 0
		for _, c := range final.Cells {
			if c.Benchmark == k.Benchmark && c.Class == k.Class && c.Threads == k.Threads {
				n++
			}
		}
		if n != 1 {
			t.Errorf("planned cell %v has %d lines, want exactly 1", k, n)
		}
	}
	for i, c := range pre.Cells {
		if !slices.Equal(c.Samples, final.Cells[i].Samples) || c.Threads != final.Cells[i].Threads {
			t.Errorf("pre-kill line %d changed on resume: %+v became %+v", i, c, final.Cells[i])
		}
	}
}

// TestMemGuardSkipsAndJournals: an unfittable cell becomes
// SKIP(memory: ...) — not a failure, not an execution — and writes no
// line to the record, so a resume treats it as still pending.
func TestMemGuardSkipsAndJournals(t *testing.T) {
	threads := []int{1}
	rec, path := newRecord(t, []npbgo.Benchmark{npbgo.CG}, threads)
	withAvailableMemory(t, 1024, true)
	if err := rec.RunSweep(npbgo.CG, 'S', threads, Options{}); err != nil {
		t.Fatalf("skips must not fail the sweep: %v", err)
	}
	if n := strings.Count(SuiteTable("T", rec), "SKIP(memory: need "); n != 2 {
		t.Fatalf("%d cells render SKIP(memory: ...), want both:\n%s", n, SuiteTable("T", rec))
	}
	if cells := readRecord(t, path).Cells; len(cells) != 0 {
		t.Fatalf("skipped cells wrote %d lines, want none", len(cells))
	}
	re, _, err := ResumeRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, k := range PlannedCells(re.BenchRecord) {
		if _, ok := re.Cell(k); ok {
			t.Fatalf("skipped cell %v is recorded; it must stay pending for resume", k)
		}
	}
}

// TestResumeReattemptsSkippedCell: a memory-guard skip is final for the
// run but not for the plan — on resume, where the host may have room,
// the cell runs and its line lands.
func TestResumeReattemptsSkippedCell(t *testing.T) {
	threads := []int{1}
	rec, path := newRecord(t, []npbgo.Benchmark{npbgo.CG}, threads)
	restore := withAvailableMemory(t, 1024, true)
	if err := rec.RunSweep(npbgo.CG, 'S', threads, Options{}); err != nil {
		t.Fatal(err)
	}
	rec.Close()
	restore()
	re, _, err := ResumeRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.RunSweep(npbgo.CG, 'S', threads, Options{}); err != nil {
		t.Fatal(err)
	}
	cells := readRecord(t, path).Cells
	if len(cells) != 2 {
		t.Fatalf("record holds %d lines after the resume, want 2", len(cells))
	}
	for _, m := range cells {
		if !m.Verified {
			t.Fatalf("skipped cell t%d not re-attempted on resume: %+v", m.Threads, m)
		}
	}
	if out := SuiteTable("T", re); strings.Contains(out, "SKIP") {
		t.Fatalf("a re-attempted cell still renders SKIP:\n%s", out)
	}
}

// TestResumedFailedCellIsTerminal: a cell that failed in a recorded
// sweep is terminal; resume must replay it as failed, not execute it
// again.
func TestResumedFailedCellIsTerminal(t *testing.T) {
	fault.Activate(fault.Rule{Site: "harness.cell", Kind: fault.KindPanic, Count: -1})
	defer fault.Reset()
	rec, path := newRecord(t, []npbgo.Benchmark{npbgo.CG}, []int{1})
	if err := rec.RunSweep(npbgo.CG, 'S', []int{1}, Options{}); err == nil {
		t.Fatal("sweep succeeded despite an always-panic rule")
	}
	rec.Close()
	executed := fault.Hits("harness.cell")
	re, _, err := ResumeRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.RunSweep(npbgo.CG, 'S', []int{1}, Options{}); err == nil {
		t.Fatal("resumed sweep succeeded; its failed cells must replay as failed")
	}
	if n := fault.Hits("harness.cell"); n != executed {
		t.Fatalf("resume executed %d failed cells again", n-executed)
	}
	if out := SuiteTable("T", re); strings.Count(out, "FAIL(panic)") != 2 {
		t.Fatalf("failed cells did not replay as FAIL(panic):\n%s", out)
	}
	if n := len(readRecord(t, path).Cells); n != 2 {
		t.Fatalf("record holds %d lines, want the 2 failed ones", n)
	}
}

// TestMemGuardFailsOpen: an unreadable probe or unknown footprint must
// admit the cell — a guess never blocks a runnable run.
func TestMemGuardFailsOpen(t *testing.T) {
	withAvailableMemory(t, 0, false)
	if err := admit(npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 1}); err != nil {
		t.Fatalf("failed probe must admit: %v", err)
	}
	withAvailableMemory(t, 1, true)
	if err := admit(npbgo.Config{Benchmark: "NOPE", Class: 'S', Threads: 1}); err != nil {
		t.Fatalf("unknown footprint must admit: %v", err)
	}
	if skip := admit(npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 1}); skip == nil {
		t.Fatal("1-byte budget admitted CG.S")
	}
}

// withAvailableMemory makes the guard's probe report n bytes (ok false:
// no probe) until the returned restore runs, or the test ends.
func withAvailableMemory(t *testing.T, n uint64, ok bool) (restore func()) {
	prev := availableMemory
	availableMemory = func() (uint64, bool) { return n, ok }
	restore = func() { availableMemory = prev }
	t.Cleanup(restore)
	return restore
}

// TestResumeReplaysWithoutExecuting: cells with a line in a resumed
// record come back from it — an ok cell with its samples, a failed cell
// still failed, and failing the sweep, since a failure is terminal — and
// an always-panic fault rule proves no benchmark actually ran.
func TestResumeReplaysWithoutExecuting(t *testing.T) {
	fault.Activate(fault.Rule{Site: "harness.cell", Kind: fault.KindPanic, Count: -1})
	defer fault.Reset()
	rec, path := newRecord(t, []npbgo.Benchmark{npbgo.CG}, []int{1, 2})
	for _, m := range []report.CellMetrics{
		{Benchmark: "CG", Class: "S", Threads: 0, Elapsed: 1.5, Mops: 10, Verified: true, Attempts: 1},
		{Benchmark: "CG", Class: "S", Threads: 1, Elapsed: 0.75, Mops: 20, Verified: true, Attempts: 2,
			Samples: []float64{0.8, 0.75}},
		{Benchmark: "CG", Class: "S", Threads: 2, Attempts: 1, Error: "harness: cell panicked"},
	} {
		if err := rec.add(m); err != nil {
			t.Fatal(err)
		}
	}
	rec.Close()
	re, _, err := ResumeRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	err = re.RunSweep(npbgo.CG, 'S', []int{1, 2}, Options{})
	if err == nil || err.Error() != "CG.S threads=2: harness: cell panicked" {
		t.Fatalf("replayed sweep error = %v, want only the replayed t2 failure", err)
	}
	if n := fault.Hits("harness.cell"); n != 0 {
		t.Fatalf("resume executed %d cells, want all 3 replayed", n)
	}
	// The t2 line predates the recorded reason, so it renders as the
	// failure it says it is and no more.
	if row := tableRow(SuiteTable("T", re), "CG.S"); !slices.Equal(row, []string{"CG.S", "1.50", "0.750", "FAIL(error)", "partial"}) {
		t.Fatalf("replayed row = %q", row)
	}
	if n := len(readRecord(t, path).Cells); n != 3 {
		t.Fatalf("replay wrote lines: record holds %d, want 3", n)
	}
}

// tableRow returns the fields of the table row whose first field is
// label.
func tableRow(table, label string) []string {
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == label {
			return f
		}
	}
	return nil
}

func TestFormatBytes(t *testing.T) {
	if s := formatBytes(2 << 30); s != "2.0GiB" {
		t.Errorf("formatBytes(2GiB) = %q", s)
	}
	if s := formatBytes(512); s != "512B" {
		t.Errorf("formatBytes(512) = %q", s)
	}
}

// TestResumedFailedLineFailsSweep: a sweep whose record holds a failed
// cell line fails again when it is resumed, each replayed failure in
// the joined error under the same bench.class cell: wrap a run gives,
// although nothing runs.
func TestResumedFailedLineFailsSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.json")
	lines := testHeader +
		`{"benchmark":"CG","class":"S","threads":0,"error":"cell panicked"}` + "\n" +
		`{"benchmark":"CG","class":"S","threads":1,"elapsed":0.01,"verified":true}` + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	re, _, err := ResumeRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	err = re.RunSweep(npbgo.CG, 'S', []int{1}, Options{})
	if err == nil || !strings.Contains(err.Error(), "CG.S serial: cell panicked") {
		t.Fatalf("resumed sweep error = %v, want the replayed serial failure", err)
	}
	if strings.Contains(err.Error(), "threads=1") || len(re.Cells) != 2 {
		t.Fatalf("record holds %d lines, error %v: the verified line must replay, and not as a failure", len(re.Cells), err)
	}
}
