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
	sw, err := rec.RunSweep(npbgo.CG, 'S', []int{2}, Options{ProfileDir: dir})
	if err != nil {
		t.Fatalf("profiled sweep failed: %v", err)
	}
	if len(sw.Runs) != 2 {
		t.Fatalf("runs = %d, want serial + t2", len(sw.Runs))
	}
	for _, r := range sw.Runs {
		if r.CPUProfile == "" || r.HeapProfile == "" {
			t.Fatalf("cell t%d missing profile paths: %+v", r.Threads, r)
		}
		if _, err := profile.Hot(r.CPUProfile, false); err != nil {
			t.Fatalf("cell t%d CPU profile undecodable: %v", r.Threads, err)
		}
		if _, err := profile.Hot(r.HeapProfile, true); err != nil {
			t.Fatalf("cell t%d heap profile undecodable: %v", r.Threads, err)
		}
	}
	for i, c := range readRecord(t, path).Cells {
		if c.CPUProfile != sw.Runs[i].CPUProfile || c.HeapProfile != sw.Runs[i].HeapProfile {
			t.Fatalf("cell line lost profile paths: %+v", c)
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
	var sw Sweep
	atSecondCell(t, func() { sw, _ = rec.RunSweep(npbgo.CG, 'S', []int{1}, Options{ProfileDir: dir}) }, func() {
		if m := failedLine(t, path); m.CPUProfile != cpu {
			t.Fatalf("failed cell line names profile %q, want %q", m.CPUProfile, cpu)
		}
		if _, err := profile.Hot(cpu, false); err != nil {
			t.Fatalf("failed cell's profile not decodable when its line landed: %v", err)
		}
	})
	if sw.Runs[0].Err == nil || sw.Runs[0].CPUProfile != cpu {
		t.Fatalf("serial run = %+v, want a failed cell with its partial profile collected", sw.Runs[0])
	}
}

// TestProfileHoldsEveryRepeat: a profiled cell's CPU profile spans all
// of its repeats, so -repeats adds samples to hotspots. EP.S serial at
// three repeats must hold about three times the CPU time of the same
// cell at one; both are CPU time, so a busy host does not blur the
// ratio, where it would the ratio to a wall-clock sample.
func TestProfileHoldsEveryRepeat(t *testing.T) {
	total := func(repeats int) int64 {
		dir := t.TempDir()
		sw, err := RunSweepOpts(npbgo.EP, 'S', nil, Options{Repeats: repeats, ProfileDir: dir})
		if err != nil {
			t.Fatalf("repeats=%d: %v", repeats, err)
		}
		r := sw.Runs[0]
		if r.Attempts != repeats || len(r.Samples) != repeats {
			t.Fatalf("repeats=%d: cell = %+v", repeats, r)
		}
		tb, err := profile.Hot(r.CPUProfile, false)
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
