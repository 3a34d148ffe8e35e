package harness

import (
	"strings"
	"testing"

	"npbgo"
	"npbgo/internal/report"
	"npbgo/internal/timer"
)

// TestObsSweepCollectsMetrics drives a tiny real sweep with Options.Obs
// and checks that the bench record holds one line per cell with the obs
// data and the phase profile flattened in.
func TestObsSweepCollectsMetrics(t *testing.T) {
	rec, path := newRecord(t, []npbgo.Benchmark{npbgo.CG}, []int{2})
	if err := rec.RunSweep(npbgo.CG, 'S', []int{2}, Options{Obs: true}); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, m := range readRecord(t, path).Cells {
		if m.Benchmark != "CG" || m.Class != "S" {
			t.Fatalf("wrong cell identity: %+v", m)
		}
		if m.Regions == 0 || len(m.WorkerBusy) != max(m.Threads, 1) {
			t.Fatalf("threads=%d: line missing obs data: %+v", m.Threads, m)
		}
		if len(m.TopPhases) == 0 {
			t.Fatalf("threads=%d: no phase profile (Obs should imply timers for CG)", m.Threads)
		}
		// Parallel cells should have attributed busy time on every worker.
		if m.Threads == 2 {
			for i, b := range m.WorkerBusy {
				if b <= 0 {
					t.Fatalf("worker %d has no busy time: %+v", i, m.WorkerBusy)
				}
			}
			if m.Imbalance < 1 {
				t.Fatalf("imbalance %v < 1", m.Imbalance)
			}
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("got %d cell lines, want 2", lines)
	}
}

// obsRecord is a class-S record of one benchmark at two threads holding
// lines.
func obsRecord(bench string, lines ...report.CellMetrics) report.BenchRecord {
	return report.BenchRecord{Class: "S", Threads: []int{2}, Benchmarks: []string{bench}, Cells: lines}
}

func TestObsTableRendersImbalance(t *testing.T) {
	rec := obsRecord("CG", report.CellMetrics{Benchmark: "CG", Class: "S", Threads: 2, Elapsed: 1,
		WorkerBusy: []float64{2, 1}, Imbalance: 2 / 1.5,
		TopPhases: []report.PhaseMetric{{Name: "t_conj_grad", Seconds: 0.9, Laps: 15}}})
	out := ObsTable("metrics", rec)
	if !strings.Contains(out, "CG.S t2") {
		t.Fatalf("missing cell row:\n%s", out)
	}
	if !strings.Contains(out, "1.33") { // 2s / mean(1.5s)
		t.Fatalf("missing imbalance ratio:\n%s", out)
	}
	if !strings.Contains(out, "t_conj_grad") {
		t.Fatalf("missing top phase:\n%s", out)
	}
}

func TestObsTableSkipsCellsWithoutData(t *testing.T) {
	out := ObsTable("metrics", obsRecord("EP", report.CellMetrics{Benchmark: "EP", Class: "S", Threads: 2, Elapsed: 1}))
	if !strings.Contains(out, "no obs data") {
		t.Fatalf("expected placeholder row:\n%s", out)
	}
}

func TestTopPhasesOrdersAndCaps(t *testing.T) {
	phases := []timer.Phase{
		{Name: "a", Seconds: 1},
		{Name: "b", Seconds: 3},
		{Name: "c", Seconds: 2},
	}
	top := topPhases(phases, 2)
	if len(top) != 2 || top[0].Name != "b" || top[1].Name != "c" {
		t.Fatalf("topPhases = %+v", top)
	}
}
