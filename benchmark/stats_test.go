package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1.5, 9}
	if got := minOf(xs); got != 1 {
		t.Errorf("minOf = %v, want 1", got)
	}
	if got := maxOf(xs); got != 9 {
		t.Errorf("maxOf = %v, want 9", got)
	}
	if got := median(xs); got != 3 {
		t.Errorf("median(odd) = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
	if xs[0] != 3 {
		t.Errorf("median reordered its argument: %v", xs)
	}
	for name, f := range map[string]func([]float64) float64{"minOf": minOf, "maxOf": maxOf, "median": median, "geomean": geomean} {
		if got := f(nil); !math.IsNaN(got) {
			t.Errorf("%s(nil) = %v, want NaN", name, got)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean(1,100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 2, 2}); !near(got, 2) {
		t.Errorf("geomean(2,2,2) = %v, want 2", got)
	}
	// One slow code must pull the mean down more than an arithmetic mean would.
	if g, a := geomean([]float64{1000, 1000, 10}), (1000+1000+10)/3.0; g >= a {
		t.Errorf("geomean %v not below arithmetic mean %v", g, a)
	}
	if got := geomean([]float64{3, 0}); !math.IsNaN(got) {
		t.Errorf("geomean with a zero = %v, want NaN", got)
	}
}

// The expected values are statistics.quantiles(xs, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{0.300, 0.305, 0.289, 0.285, 0.286, 0.299}, 0.28575, 0.30125},
		{[]float64{5, 1}, 0, 6}, // two values: Python extrapolates
		{[]float64{2, 4, 4, 5, 7}, 3, 6},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestBestAndMinUntimed(t *testing.T) {
	r := cellRun{samples: []sample{
		{timed: 3, untimed: 0.5, ok: true},
		{timed: 1, untimed: 0.1, ok: false}, // failed samples never count
		{timed: 2, untimed: 0.7, ok: true},
		{timed: 1.5, untimed: 0.4, ok: true},
	}}
	if b, ok := r.best(0); !ok || b.timed != 1.5 {
		t.Errorf("best(all) = %v %v, want 1.5", b.timed, ok)
	}
	if b, ok := r.best(2); !ok || b.timed != 2 {
		t.Errorf("best(first 2 good) = %v %v, want 2", b.timed, ok)
	}
	if got := r.minUntimed(); got != 0.4 {
		t.Errorf("minUntimed = %v, want 0.4", got)
	}
	if _, ok := (&cellRun{samples: []sample{{timed: 1}}}).best(0); ok {
		t.Error("best of only failed samples reported ok")
	}
}

func TestScaledK(t *testing.T) {
	for _, c := range []struct {
		k       int
		seconds float64
		want    int
	}{{50, nominalSeconds, 50}, {50, nominalSeconds / 2, 25}, {2, 1, 1}, {4, 2 * nominalSeconds, 8}} {
		if got := scaledK(c.k, c.seconds); got != c.want {
			t.Errorf("scaledK(%d, %v) = %d, want %d", c.k, c.seconds, got, c.want)
		}
	}
}
