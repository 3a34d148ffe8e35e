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
	out := Scaling(scalingFixture())
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
	if serial.KarpFlatt != 0 || serial.Speedup != 1 || serial.Efficiency != 1 {
		t.Fatalf("serial point: %+v", serial)
	}
	// E(4) is S(4)/4: FT's single samples give S(4) = 0.80/0.50.
	ft4 := out[2].Points[1]
	if ft4.Threads != 4 || math.Abs(ft4.Speedup-1.6) > 1e-9 || math.Abs(ft4.Efficiency-0.4) > 1e-9 {
		t.Fatalf("FT t4: %+v, want S = 1.60, E = 0.40", ft4)
	}
}

func TestScalingAnomalyRules(t *testing.T) {
	out := Scaling(scalingFixture())
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

// TestFailedSerialDisablesSpeedup: speedup is over the serial cell or
// not at all. A group whose serial cell failed gets no speedup, even
// with a one-thread cell to divide by, while its anomaly rules still
// run.
func TestFailedSerialDisablesSpeedup(t *testing.T) {
	rec := report.BenchRecord{Schema: report.BenchSchema, Cells: []report.CellMetrics{
		{Benchmark: "MG", Class: "W", Threads: 0, Error: "npbgo: MG.W panic: injected"},
		{Benchmark: "MG", Class: "W", Threads: 1, Samples: []float64{1.0}},
		{Benchmark: "MG", Class: "W", Threads: 2, Samples: []float64{0.5}, Imbalance: 3},
	}}
	out := Scaling(rec)
	if len(out) != 1 || out[0].BaseSec != 0 {
		t.Fatalf("a failed serial cell left a baseline: %+v", out)
	}
	for _, p := range out[0].Points {
		if p.Speedup != 0 || p.Efficiency != 0 || p.KarpFlatt != 0 {
			t.Fatalf("t%d: speedup over a failed baseline: %+v", p.Threads, p)
		}
	}
	if as := out[0].Anomalies; len(as) != 1 || as[0] != LoadImbalance {
		t.Fatalf("anomaly rules did not run without a baseline: %v", as)
	}
}

func TestScalingTableOutput(t *testing.T) {
	out := ScalingTable(Scaling(scalingFixture()))
	for _, want := range []string{"CG.S serial", "CG.S t4", "load-imbalance", "barrier-sync", "small-work", "e(KF)",
		"FT.S t4       0.500  1.60  0.40"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scaling table missing %q:\n%s", want, out)
		}
	}
}
