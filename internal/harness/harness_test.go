package harness

import (
	"strings"
	"testing"

	"npbgo"
	"npbgo/internal/perfstat"
	"npbgo/internal/report"
)

// memSweep runs one benchmark's sweep into a record held in memory, as
// npbsuite does without -bench-json, and returns the record and the
// sweep's error.
func memSweep(bench npbgo.Benchmark, threads []int, opt Options) (*Record, error) {
	rec := NewRecord("test", []npbgo.Benchmark{bench}, 'S', threads, opt.Schedule)
	return rec, rec.RunSweep(bench, 'S', threads, opt)
}

func TestRunSweepProducesCells(t *testing.T) {
	rec, err := memSweep(npbgo.IS, []int{1, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Cells) != 3 { // serial + two thread counts
		t.Fatalf("got %d lines", len(rec.Cells))
	}
	base, ok := rec.Cell(CellKey{"IS", "S", 0})
	if !ok || base.Elapsed <= 0 {
		t.Fatalf("serial baseline missing or degenerate: %+v", base)
	}
	for _, m := range rec.Cells {
		if !m.Verified || m.Tier != "official" {
			t.Fatalf("line %+v unverified", m)
		}
	}
}

// suiteRecord is a record of one benchmark at class A, planned for
// threads, holding lines.
func suiteRecord(bench string, threads []int, lines ...report.CellMetrics) *Record {
	rec := &Record{BenchRecord: report.BenchRecord{Class: "A", Threads: threads, Benchmarks: []string{bench}}}
	for _, m := range lines {
		m.Benchmark, m.Class = bench, "A"
		rec.Cells = append(rec.Cells, m)
	}
	return rec
}

// TestSpeedupAndEfficiency: a sweep's record lines are what npbsuite's
// speedup is computed from. Over the serial line, S(2) = 8/4 and
// E(4) = (8/2)/4; a thread count with no line has no point, and a
// failed line gets none either.
func TestSpeedupAndEfficiency(t *testing.T) {
	rec := suiteRecord("CG", []int{2, 4, 8},
		report.CellMetrics{Threads: 0, Elapsed: 8},
		report.CellMetrics{Threads: 2, Elapsed: 4},
		report.CellMetrics{Threads: 4, Elapsed: 2},
		report.CellMetrics{Threads: 8, Error: "config", Fail: npbgo.ErrConfig})
	groups := perfstat.Scaling(rec.BenchRecord)
	if len(groups) != 1 || groups[0].BaseSec != 8 {
		t.Fatalf("baseline is not the serial line: %+v", groups)
	}
	at := make(map[int]perfstat.ScalePoint)
	for _, p := range groups[0].Points {
		at[p.Threads] = p
	}
	if s := at[2].Speedup; s != 2 {
		t.Fatalf("S(2) = %v", s)
	}
	if e := at[4].Efficiency; e != 1 {
		t.Fatalf("E(4) = %v", e)
	}
	if _, ok := at[8]; ok || len(at) != 3 {
		t.Fatalf("a failed line should give no point: %+v", groups[0].Points)
	}
}

// TestSpeedupTableRendering: the speedup table npbsuite prints for a
// record renders S and E of each line: 9/3 = 3.00 and 3.00/3 = 1.00.
func TestSpeedupTableRendering(t *testing.T) {
	rec := suiteRecord("LU", []int{3},
		report.CellMetrics{Threads: 0, Elapsed: 9},
		report.CellMetrics{Threads: 3, Elapsed: 3})
	out := perfstat.ScalingTable(perfstat.Scaling(rec.BenchRecord))
	if !strings.Contains(out, "LU.A t3") || !strings.Contains(out, "3.00") || !strings.Contains(out, "1.00") {
		t.Fatalf("speedup/efficiency missing: %q", out)
	}
}

func TestSuiteTableRendering(t *testing.T) {
	rec := suiteRecord("BT", []int{2, 4},
		report.CellMetrics{Threads: 0, Elapsed: 10, Verified: true, Tier: "official"},
		report.CellMetrics{Threads: 2, Elapsed: 6, Verified: true, Tier: "official"})
	out := SuiteTable("T", rec)
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

// TestUnverifiedMarked: the verified column reads "yes" only when every
// cell that ran verified. An unverified cell marks its row no(tier); a
// failed cell beside verified ones marks it partial (it used to be
// skipped, so such a row read yes); a row with no completed cell reads
// "-". A SKIP cell never ran: it neither verifies a row nor fails it.
func TestUnverifiedMarked(t *testing.T) {
	ok := report.CellMetrics{Elapsed: 1, Verified: true, Tier: "official"}
	at := func(m report.CellMetrics, threads int) report.CellMetrics { m.Threads = threads; return m }
	failed := report.CellMetrics{Error: "config", Fail: npbgo.ErrConfig}
	skip := &SkipError{Need: 2 << 30, Have: 1 << 30}
	for _, c := range []struct {
		lines   []report.CellMetrics
		skipped []int
		want    string
	}{
		{[]report.CellMetrics{{Elapsed: 1, Tier: "none"}}, nil, "no(none)"},
		{[]report.CellMetrics{at(ok, 0), at(ok, 2)}, nil, "yes"},
		{[]report.CellMetrics{at(ok, 0), at(failed, 2)}, nil, "partial"},
		{[]report.CellMetrics{at(failed, 0), {Threads: 2, Elapsed: 1, Tier: "none"}}, nil, "no(none)"},
		{[]report.CellMetrics{at(ok, 0)}, []int{2}, "yes"},
		{[]report.CellMetrics{at(failed, 2)}, []int{0}, "-"},
		{nil, []int{0, 2}, "-"},
	} {
		rec := suiteRecord("LUFACT", []int{2}, c.lines...)
		rec.skipped = make(map[CellKey]*SkipError)
		for _, th := range c.skipped {
			rec.skipped[CellKey{"LUFACT", "A", th}] = skip
		}
		out := SuiteTable("T", rec)
		row := tableRow(out, "LUFACT.A")
		if got := row[len(row)-1]; got != c.want {
			t.Errorf("verified column = %q, want %q:\n%s", got, c.want, out)
		}
	}
}

func TestRunSweepUnknownBenchmark(t *testing.T) {
	if _, err := memSweep(npbgo.Benchmark("XX"), []int{1}, Options{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRepeatsRetainAllSamples(t *testing.T) {
	rec, err := memSweep(npbgo.IS, []int{2}, Options{Repeats: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rec.Cells {
		if len(m.Samples) != 3 || m.Attempts != 3 {
			t.Fatalf("threads=%d: got %d samples of %d attempts, want 3 (every repeat retained)", m.Threads, len(m.Samples), m.Attempts)
		}
		for _, s := range m.Samples {
			if s <= 0 {
				t.Fatalf("threads=%d: degenerate sample %v", m.Threads, s)
			}
		}
		if best := min(m.Samples[0], m.Samples[1], m.Samples[2]); m.Elapsed != best {
			t.Fatalf("threads=%d: headline %v is not the best sample %v", m.Threads, m.Elapsed, best)
		}
	}
}
