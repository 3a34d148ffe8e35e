package perfstat

import (
	"math"
	"strings"
	"testing"

	"npbgo/internal/report"
)

// scalingFixture is a record with one healthy curve (LU), one
// load-imbalanced cell (CG t4), one barrier-bound cell (LU t4 has
// moderate share; FT t4 exceeds it) and one too-small workload (IS).
func scalingFixture() report.BenchRecord {
	return report.BenchRecord{
		Schema: report.BenchSchema,
		Stamp:  "T",
		Class:  "S",
		Cells: []report.CellMetrics{
			{Benchmark: "CG", Class: "S", Threads: 0, Samples: []float64{0.40, 0.42, 0.41}},
			{Benchmark: "CG", Class: "S", Threads: 2, Samples: []float64{0.24, 0.25, 0.26}, Imbalance: 1.02},
			{Benchmark: "CG", Class: "S", Threads: 4, Samples: []float64{0.20, 0.21, 0.22}, Imbalance: 2.8, BarrierWait: 0.01},
			{Benchmark: "IS", Class: "S", Threads: 0, Samples: []float64{0.0006, 0.0007, 0.0008}},
			{Benchmark: "IS", Class: "S", Threads: 2, Samples: []float64{0.0004, 0.0005, 0.0006}, Imbalance: 1.05},
			{Benchmark: "FT", Class: "S", Threads: 0, Samples: []float64{0.80}},
			{Benchmark: "FT", Class: "S", Threads: 4, Samples: []float64{0.50}, Imbalance: 1.01, BarrierWait: 0.60},
			{Benchmark: "EP", Class: "S", Threads: 2, Error: "panic: injected"},
		},
	}
}

func TestScalingCurves(t *testing.T) {
	out := Scaling(scalingFixture(), ScalingOptions{})
	if len(out) != 3 { // EP had only a failed cell
		t.Fatalf("got %d groups: %+v", len(out), out)
	}
	cg := out[0]
	if cg.Benchmark != "CG" || cg.BaseSec != 0.41 {
		t.Fatalf("CG baseline wrong (want serial median 0.41): %+v", cg)
	}
	t2 := cg.Points[1]
	if t2.Threads != 2 || math.Abs(t2.Speedup-0.41/0.25) > 1e-9 {
		t.Fatalf("S(2) wrong: %+v", t2)
	}
	if math.Abs(t2.Efficiency-t2.Speedup/2) > 1e-9 {
		t.Fatalf("E(2) wrong: %+v", t2)
	}
	// Karp-Flatt at p=2, S=1.64: e = (1/S - 1/2)/(1 - 1/2).
	wantKF := (1/t2.Speedup - 0.5) / 0.5
	if math.Abs(t2.KarpFlatt-wantKF) > 1e-9 {
		t.Fatalf("Karp-Flatt = %v, want %v", t2.KarpFlatt, wantKF)
	}
	serial := cg.Points[0]
	if serial.KarpFlatt != 0 || serial.Speedup != 1 {
		t.Fatalf("serial point: %+v", serial)
	}
}

func TestScalingAnomalyRules(t *testing.T) {
	out := Scaling(scalingFixture(), ScalingOptions{})
	byBench := make(map[string]BenchScaling)
	for _, bs := range out {
		byBench[bs.Benchmark] = bs
	}
	if as := byBench["CG"].Anomalies; len(as) != 1 || as[0] != LoadImbalance {
		t.Fatalf("CG should flag load-imbalance only: %v", as)
	}
	if as := byBench["IS"].Anomalies; len(as) != 1 || as[0] != SmallWork {
		t.Fatalf("IS should flag small-work only: %v", as)
	}
	// FT t4: barrier share = 0.60/(4*0.5) = 0.30 >= 0.2.
	if as := byBench["FT"].Anomalies; len(as) != 1 || as[0] != BarrierSync {
		t.Fatalf("FT should flag barrier-sync only: %v", as)
	}
	ft4 := byBench["FT"].Points[1]
	if math.Abs(ft4.BarrierShare-0.30) > 1e-9 {
		t.Fatalf("barrier share = %v", ft4.BarrierShare)
	}
}

func TestScalingThresholdsConfigurable(t *testing.T) {
	out := Scaling(scalingFixture(), ScalingOptions{ImbalanceMin: 5, BarrierShareMin: 0.9, SmallWorkSec: 1e-9})
	for _, bs := range out {
		if len(bs.Anomalies) != 0 {
			t.Fatalf("loose thresholds still flagged %s: %v", bs.Benchmark, bs.Anomalies)
		}
	}
}

func TestScalingFallsBackToOneThreadBaseline(t *testing.T) {
	rec := report.BenchRecord{Schema: report.BenchSchema, Cells: []report.CellMetrics{
		{Benchmark: "MG", Class: "W", Threads: 1, Samples: []float64{1.0}},
		{Benchmark: "MG", Class: "W", Threads: 2, Samples: []float64{0.5}},
	}}
	out := Scaling(rec, ScalingOptions{})
	if len(out) != 1 || out[0].BaseSec != 1.0 {
		t.Fatalf("baseline fallback failed: %+v", out)
	}
	if s := out[0].Points[1].Speedup; s != 2 {
		t.Fatalf("S(2) over t1 baseline = %v", s)
	}
	// An even sample count interpolates between the middle two.
	rec.Cells[0].Samples = []float64{1.0, 1.2}
	out = Scaling(rec, ScalingOptions{})
	if b := out[0].BaseSec; math.Abs(b-1.1) > 1e-12 {
		t.Fatalf("t1 baseline of {1.0, 1.2} = %v, want 1.1", b)
	}
}

func TestScalingTableOutput(t *testing.T) {
	out := ScalingTable(Scaling(scalingFixture(), ScalingOptions{}))
	for _, want := range []string{"CG.S serial", "CG.S t4", "load-imbalance", "barrier-sync", "small-work", "e(KF)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scaling table missing %q:\n%s", want, out)
		}
	}
}
