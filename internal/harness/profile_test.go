package harness

import (
	"testing"
	"time"

	"npbgo"
	"npbgo/internal/fault"
	"npbgo/internal/profile"
)

// TestProfiledSweepCapturesCells: a profiled sweep leaves one decodable
// CPU and heap profile per cell, and records their paths in the cell
// lines of the bench record.
func TestProfiledSweepCapturesCells(t *testing.T) {
	dir := t.TempDir()
	rec, path := newRecord(t, []npbgo.Benchmark{npbgo.CG}, []int{2})
	if err := rec.RunSweep(npbgo.CG, 'S', []int{2}, Options{ProfileDir: dir}); err != nil {
		t.Fatalf("profiled sweep failed: %v", err)
	}
	cells := readRecord(t, path).Cells
	if len(cells) != 2 {
		t.Fatalf("lines = %d, want serial + t2", len(cells))
	}
	for _, c := range cells {
		cpu, heap := profile.CellPaths(dir, "CG.S."+cellName(c.Threads))
		if c.CPUProfile != cpu || c.HeapProfile != heap {
			t.Fatalf("cell t%d line names profiles %q, %q; want %q, %q", c.Threads, c.CPUProfile, c.HeapProfile, cpu, heap)
		}
		if _, err := profile.Hot(c.CPUProfile, false); err != nil {
			t.Fatalf("cell t%d CPU profile undecodable: %v", c.Threads, err)
		}
		if _, err := profile.Hot(c.HeapProfile, true); err != nil {
			t.Fatalf("cell t%d heap profile undecodable: %v", c.Threads, err)
		}
		if c.Env != nil {
			t.Fatalf("in-process cell carries a per-cell env (should only differ under isolation): %+v", c.Env)
		}
	}
}

// TestFailedCellProfileFlushedBeforeFail is the ordering satellite: a
// cell killed by an injected panic must have its CPU profile flushed
// and decodable on disk, and named in its record line, before the next
// cell starts — so before FAIL rendering too.
func TestFailedCellProfileFlushedBeforeFail(t *testing.T) {
	fault.Activate(
		fault.Rule{Site: "cg.iter", Kind: fault.KindPanic, Count: -1},
		fault.Rule{Site: "harness.cell", Kind: fault.KindDelay, On: 2, Sleep: 500 * time.Millisecond})
	defer fault.Reset()
	dir := t.TempDir()
	cpu, _ := profile.CellPaths(dir, "CG.S.serial")
	rec, path := newRecord(t, []npbgo.Benchmark{npbgo.CG}, []int{1})
	atSecondCell(t, func() { rec.RunSweep(npbgo.CG, 'S', []int{1}, Options{ProfileDir: dir}) }, func() {
		if m := failedLine(t, path); m.CPUProfile != cpu {
			t.Fatalf("failed cell line names profile %q, want %q", m.CPUProfile, cpu)
		}
		if _, err := profile.Hot(cpu, false); err != nil {
			t.Fatalf("failed cell's profile not decodable when its line landed: %v", err)
		}
	})
}

// TestProfileHoldsEveryRepeat: a profiled cell's CPU profile spans all
// of its repeats, so -repeats adds samples to hotspots. EP.S serial at
// three repeats must hold about three times the CPU time of the same
// cell at one; both are CPU time, so a busy host does not blur the
// ratio, where it would the ratio to a wall-clock sample.
func TestProfileHoldsEveryRepeat(t *testing.T) {
	total := func(repeats int) int64 {
		dir := t.TempDir()
		rec, err := memSweep(npbgo.EP, nil, Options{Repeats: repeats, ProfileDir: dir})
		if err != nil {
			t.Fatalf("repeats=%d: %v", repeats, err)
		}
		m := rec.Cells[0]
		if m.Attempts != repeats || len(m.Samples) != repeats {
			t.Fatalf("repeats=%d: cell = %+v", repeats, m)
		}
		tb, err := profile.Hot(m.CPUProfile, false)
		if err != nil {
			t.Fatalf("repeats=%d: %v", repeats, err)
		}
		return tb.Total
	}
	one, three := total(1), total(3)
	if float64(three) < 1.8*float64(one) {
		t.Fatalf("CPU profile of 3 repeats holds %v, of 1 repeat %v: want at least 1.8x",
			time.Duration(three), time.Duration(one))
	}
}
