package perfstat

import (
	"testing"

	"npbgo/internal/report"
)

// TestSummarizeDoesNotMutateInput: a cell's median summary sorts a
// copy, so the record's samples stay in run order.
func TestSummarizeDoesNotMutateInput(t *testing.T) {
	c := report.CellMetrics{Samples: []float64{3, 1, 2}}
	if m := medianOf(c); m != 2 {
		t.Fatalf("median of {3,1,2} = %v", m)
	}
	if c.Samples[0] != 3 || c.Samples[1] != 1 || c.Samples[2] != 2 {
		t.Fatalf("input mutated: %v", c.Samples)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	if q := quantile(sorted, 0.5); q != 2.5 {
		t.Fatalf("median of 1..4 = %v", q)
	}
	if q := quantile(sorted, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := quantile(sorted, 1); q != 4 {
		t.Fatalf("q1 = %v", q)
	}
	// medianOf sorts before it interpolates, and takes the headline of a
	// sample-less cell as its one point.
	if m := medianOf(report.CellMetrics{Samples: []float64{4, 1, 3, 2}}); m != 2.5 {
		t.Fatalf("medianOf {4,1,3,2} = %v", m)
	}
	if m := medianOf(report.CellMetrics{Elapsed: 0.42}); m != 0.42 {
		t.Fatalf("medianOf of a sample-less cell = %v, want the headline", m)
	}
	if m := medianOf(report.CellMetrics{}); m != 0 {
		t.Fatalf("medianOf of an empty cell = %v", m)
	}
}
