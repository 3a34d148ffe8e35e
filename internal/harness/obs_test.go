package harness

import (
	"strings"
	"testing"
	"time"

	"npbgo"
	"npbgo/internal/team"
	"npbgo/internal/timer"
)

// TestObsSweepCollectsMetrics drives a tiny real sweep with Options.Obs
// and checks that every cell carries a snapshot and that the bench
// record holds one line per cell with the obs data flattened in.
func TestObsSweepCollectsMetrics(t *testing.T) {
	rec, path := newRecord(t, []npbgo.Benchmark{npbgo.CG}, []int{2})
	sw, err := rec.RunSweep(npbgo.CG, 'S', []int{2}, Options{Obs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Runs) != 2 { // serial + threads=2
		t.Fatalf("got %d runs", len(sw.Runs))
	}
	for _, r := range sw.Runs {
		if r.Obs == nil {
			t.Fatalf("threads=%d: no obs snapshot", r.Threads)
		}
		if r.Obs.Regions == 0 {
			t.Fatalf("threads=%d: no regions recorded", r.Threads)
		}
		if len(r.Phases) == 0 {
			t.Fatalf("threads=%d: no phase profile (Obs should imply timers for CG)", r.Threads)
		}
	}
	// Parallel cells should have attributed busy time on every worker.
	for _, r := range sw.Runs {
		if r.Threads != 2 {
			continue
		}
		for i, b := range r.Obs.Busy {
			if b <= 0 {
				t.Fatalf("worker %d has no busy time: %+v", i, r.Obs.Busy)
			}
		}
		if im := r.Obs.Imbalance(); im < 1 {
			t.Fatalf("imbalance %v < 1", im)
		}
	}

	lines := 0
	for _, m := range readRecord(t, path).Cells {
		if m.Benchmark != "CG" || m.Class != "S" {
			t.Fatalf("wrong cell identity: %+v", m)
		}
		if m.Regions == 0 || len(m.WorkerBusy) == 0 {
			t.Fatalf("metrics record missing obs data: %+v", m)
		}
		if len(m.TopPhases) == 0 {
			t.Fatalf("metrics record missing phases: %+v", m)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("got %d cell lines, want 2", lines)
	}
}

func TestObsTableRendersImbalance(t *testing.T) {
	stats := team.NewProbe(2, nil, nil).Snapshot()
	stats.Busy = []time.Duration{2 * time.Second, time.Second}
	sw := Sweep{Benchmark: npbgo.CG, Class: 'S', Runs: []Run{
		{Threads: 2, Elapsed: time.Second, Obs: stats,
			Phases: []timer.Phase{{Name: "t_conj_grad", Seconds: 0.9, Laps: 15}}},
	}}
	out := ObsTable("metrics", []Sweep{sw})
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
	sw := Sweep{Benchmark: npbgo.EP, Class: 'S', Runs: []Run{{Threads: 1}}}
	out := ObsTable("metrics", []Sweep{sw})
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
