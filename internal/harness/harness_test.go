package harness

import (
	"strings"
	"testing"
	"time"

	"npbgo"
)

func TestRunSweepProducesCells(t *testing.T) {
	sw, err := RunSweepOpts(npbgo.IS, 'S', []int{1, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Runs) != 3 { // serial + two thread counts
		t.Fatalf("got %d runs", len(sw.Runs))
	}
	base, ok := sw.Serial()
	if !ok || base.Elapsed <= 0 {
		t.Fatalf("serial baseline missing or degenerate: %+v", base)
	}
	for _, r := range sw.Runs {
		if !r.Verified {
			t.Fatalf("run %+v unverified", r)
		}
	}
}

func TestSpeedupAndEfficiency(t *testing.T) {
	sw := Sweep{Benchmark: npbgo.CG, Class: 'S', Runs: []Run{
		{Threads: 0, Elapsed: 8 * time.Second},
		{Threads: 2, Elapsed: 4 * time.Second},
		{Threads: 4, Elapsed: 2 * time.Second},
	}}
	if s := sw.Speedup(2); s != 2 {
		t.Fatalf("Speedup(2) = %v", s)
	}
	if e := sw.Efficiency(4); e != 1 {
		t.Fatalf("Efficiency(4) = %v", e)
	}
	if sw.Speedup(8) != 0 {
		t.Fatal("missing cell should give 0 speedup")
	}
	if sw.Efficiency(0) != 0 {
		t.Fatal("zero threads should give 0 efficiency")
	}
}

func TestSuiteTableRendering(t *testing.T) {
	sw := Sweep{Benchmark: npbgo.BT, Class: 'A', Runs: []Run{
		{Threads: 0, Elapsed: 10 * time.Second, Verified: true, Tier: "official"},
		{Threads: 2, Elapsed: 6 * time.Second, Verified: true, Tier: "official"},
	}}
	out := SuiteTable("T", []Sweep{sw}, []int{2, 4})
	if !strings.Contains(out, "BT.A") || !strings.Contains(out, "10.0") {
		t.Fatalf("table missing cells: %q", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("missing cell not rendered as '-': %q", out)
	}
	if !strings.Contains(out, "yes") {
		t.Fatalf("verification column missing: %q", out)
	}
}

func TestSpeedupTableRendering(t *testing.T) {
	sw := Sweep{Benchmark: npbgo.LU, Class: 'S', Runs: []Run{
		{Threads: 0, Elapsed: 9 * time.Second},
		{Threads: 3, Elapsed: 3 * time.Second},
	}}
	out := SpeedupTable("S", []Sweep{sw}, []int{3})
	if !strings.Contains(out, "3.00") || !strings.Contains(out, "1.00") {
		t.Fatalf("speedup/efficiency missing: %q", out)
	}
}

// TestUnverifiedMarked: the verified column reads "yes" only when every
// cell that ran verified. An unverified cell marks its row no(tier); a
// failed cell beside verified ones marks it partial (it used to be
// skipped, so such a row read yes); a row with no completed cell reads
// "-". A SKIP cell never ran: it neither verifies a row nor fails it.
func TestUnverifiedMarked(t *testing.T) {
	ok := Run{Elapsed: time.Second, Verified: true, Tier: "official"}
	at := func(r Run, threads int) Run { r.Threads = threads; return r }
	failed := Run{Err: &npbgo.RunError{Kind: npbgo.ErrConfig}}
	skipped := Run{Err: &SkipError{Need: 2 << 30, Have: 1 << 30}}
	for _, c := range []struct {
		runs []Run
		want string
	}{
		{[]Run{{Elapsed: time.Second, Tier: "none"}}, "no(none)"},
		{[]Run{at(ok, 0), at(ok, 2)}, "yes"},
		{[]Run{at(ok, 0), at(failed, 2)}, "partial"},
		{[]Run{at(failed, 0), {Threads: 2, Elapsed: time.Second, Tier: "none"}}, "no(none)"},
		{[]Run{at(ok, 0), at(skipped, 2)}, "yes"},
		{[]Run{at(skipped, 0), at(failed, 2)}, "-"},
		{[]Run{at(skipped, 0), at(skipped, 2)}, "-"},
	} {
		out := SuiteTable("T", []Sweep{{Benchmark: "LUFACT", Class: 'A', Runs: c.runs}}, []int{2})
		var got string
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == "LUFACT.A" {
				got = f[len(f)-1]
			}
		}
		if got != c.want {
			t.Errorf("verified column = %q, want %q:\n%s", got, c.want, out)
		}
	}
}

func TestRunSweepUnknownBenchmark(t *testing.T) {
	if _, err := RunSweepOpts(npbgo.Benchmark("XX"), 'S', []int{1}, Options{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRepeatsRetainAllSamples(t *testing.T) {
	sw, err := RunSweepOpts(npbgo.IS, 'S', []int{2}, Options{Repeats: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sw.Runs {
		if len(r.Samples) != 3 {
			t.Fatalf("threads=%d: got %d samples, want 3 (every repeat retained)", r.Threads, len(r.Samples))
		}
		best := r.Samples[0]
		for _, s := range r.Samples {
			if s <= 0 {
				t.Fatalf("threads=%d: degenerate sample %v", r.Threads, s)
			}
			if s < best {
				best = s
			}
		}
		if r.Elapsed != best {
			t.Fatalf("threads=%d: headline %v is not the best sample %v", r.Threads, r.Elapsed, best)
		}
	}
}
