package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"npbgo"
	"npbgo/internal/fault"
	"npbgo/internal/perfstat"
	"npbgo/internal/report"
)

// newRecord creates a class-S record for benches × threads in a temp
// dir and returns it with its path.
func newRecord(t *testing.T, benches []npbgo.Benchmark, threads []int) (*Record, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rec.json")
	rec, err := CreateRecord(path, "test", benches, 'S', threads, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.Close() })
	return rec, path
}

// readRecord reads the file at path with the one loader and returns its
// single record.
func readRecord(t *testing.T, path string) report.BenchRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := report.ReadBenchRecords(bytes.NewReader(data))
	if err != nil || len(recs) != 1 {
		t.Fatalf("record %s: %d records, err %v", path, len(recs), err)
	}
	return recs[0]
}

// TestRecordPlanRoundTrip: the header carries the plan and the host, the
// plan comes back from it through PlannedCells, and a cell line comes
// back with its metrics — recorded, while every other planned cell is
// still pending.
func TestRecordPlanRoundTrip(t *testing.T) {
	benches := []npbgo.Benchmark{npbgo.CG, npbgo.EP}
	rec, path := newRecord(t, benches, []int{1, 2})
	if err := rec.add(report.CellMetrics{Benchmark: "CG", Class: "S", Threads: 0, Elapsed: 0.5, Verified: true}); err != nil {
		t.Fatal(err)
	}
	rec.Close()
	got := readRecord(t, path)
	if got.Schema != report.BenchSchema || got.Class != "S" || got.Stamp != "test" ||
		!slices.Equal(got.Threads, []int{1, 2}) || !slices.Equal(got.Benchmarks, []string{"CG", "EP"}) {
		t.Fatalf("header wrong: %+v", got)
	}
	if got.Env.GoVersion == "" || got.Env.GoMaxProcs < 1 {
		t.Fatalf("header carries no environment: %+v", got.Env)
	}
	planned := PlannedCells(got)
	if len(planned) != 6 || planned[3] != (CellKey{"EP", "S", 0}) {
		t.Fatalf("plan did not round-trip: %v", planned)
	}
	re, _, err := ResumeRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	pending := 0
	for _, k := range planned {
		m, ok := re.Cell(k)
		if !ok {
			pending++
		} else if k != (CellKey{"CG", "S", 0}) || m.Elapsed != 0.5 || !m.Verified {
			t.Fatalf("cell %v recorded as %+v", k, m)
		}
	}
	if pending != 5 {
		t.Fatalf("pending = %d, want 5", pending)
	}
}

// TestCellRecordsFlattenSweeps: the record's cell lines cover every run
// of every recorded sweep, in execution order.
func TestCellRecordsFlattenSweeps(t *testing.T) {
	benches := []npbgo.Benchmark{npbgo.IS, npbgo.CG}
	rec, path := newRecord(t, benches, []int{2})
	for _, b := range benches {
		if err := rec.RunSweep(b, 'S', []int{2}, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	cells := readRecord(t, path).Cells
	var got []CellKey
	for _, c := range cells {
		got = append(got, CellKey{c.Benchmark, c.Class, c.Threads})
		if !c.Verified || c.Elapsed <= 0 {
			t.Fatalf("cell line malformed: %+v", c)
		}
	}
	if want := PlannedCells(rec.BenchRecord); !slices.Equal(got, want) {
		t.Fatalf("cell lines %v, want %v", got, want)
	}
}

// TestBenchRecordFromCarriesSamples: each cell line keeps every repeat's
// time in seconds, with the best as its headline.
func TestBenchRecordFromCarriesSamples(t *testing.T) {
	rec, path := newRecord(t, []npbgo.Benchmark{npbgo.IS}, []int{2})
	if err := rec.RunSweep(npbgo.IS, 'S', []int{2}, Options{Repeats: 2}); err != nil {
		t.Fatal(err)
	}
	cells := readRecord(t, path).Cells
	if len(cells) != 2 {
		t.Fatalf("got %d cell lines for 2 cells", len(cells))
	}
	for i, c := range cells {
		if len(c.Samples) != 2 {
			t.Fatalf("cell t%d: %d samples, want 2", c.Threads, len(c.Samples))
		}
		if !slices.Equal(c.Samples, rec.Cells[i].Samples) {
			t.Fatalf("samples %v read back as %v", rec.Cells[i].Samples, c.Samples)
		}
		if c.Elapsed != min(c.Samples[0], c.Samples[1]) {
			t.Fatalf("headline %v is not the best sample of %v", c.Elapsed, c.Samples)
		}
	}
}

// TestTornCellLineStaysPending simulates a crash mid-append: the last
// cell line is cut mid-JSON. The record must keep every whole line,
// report the tear, and leave the torn cell pending.
func TestTornCellLineStaysPending(t *testing.T) {
	rec, path := newRecord(t, []npbgo.Benchmark{npbgo.CG}, []int{1, 2})
	for th := range 2 {
		if err := rec.add(report.CellMetrics{Benchmark: "CG", Class: "S", Threads: th, Elapsed: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	rec.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-17], 0o644); err != nil {
		t.Fatal(err)
	}

	if got := readRecord(t, path); len(got.Cells) != 1 {
		t.Fatalf("loader kept %d cells, want the 1 whole line", len(got.Cells))
	}
	re, torn, err := ResumeRecord(path)
	if err != nil {
		t.Fatalf("torn record did not reopen: %v", err)
	}
	defer re.Close()
	if !torn {
		t.Fatal("torn tail not reported")
	}
	var pending []CellKey
	for _, k := range PlannedCells(re.BenchRecord) {
		if _, ok := re.Cell(k); !ok {
			pending = append(pending, k)
		}
	}
	if len(pending) != 2 || pending[0] != (CellKey{"CG", "S", 1}) {
		t.Fatalf("pending = %v, want the torn cell and the unstarted one", pending)
	}
}

// TestResumeRecordCutsTornTail: reopening a record whose last line a
// crash tore must cut the partial line, keep every whole one, and leave
// a record that reads whole after new lines land.
func TestResumeRecordCutsTornTail(t *testing.T) {
	rec, path := newRecord(t, []npbgo.Benchmark{npbgo.CG}, []int{1})
	if err := rec.add(report.CellMetrics{Benchmark: "CG", Class: "S", Threads: 0, Elapsed: 0.5}); err != nil {
		t.Fatal(err)
	}
	rec.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"benchmark":"CG","class":"S","thr`)
	f.Close()

	re, torn, err := ResumeRecord(path)
	if err != nil {
		t.Fatalf("torn record did not reopen: %v", err)
	}
	if !torn || len(re.Cells) != 1 {
		t.Fatalf("torn = %v, cells = %d; want the torn tail seen and 1 whole cell", torn, len(re.Cells))
	}
	if _, ok := re.Cell(CellKey{"CG", "S", 1}); ok {
		t.Fatal("the torn cell counts as recorded; it must stay pending")
	}
	if err := re.add(report.CellMetrics{Benchmark: "CG", Class: "S", Threads: 1, Elapsed: 0.3}); err != nil {
		t.Fatal(err)
	}
	re.Close()
	if got := readRecord(t, path); len(got.Cells) != 2 || got.Cells[1].Threads != 1 {
		t.Fatalf("resumed record cells = %+v", got.Cells)
	}
	again, torn, err := ResumeRecord(path)
	if err != nil || torn {
		t.Fatalf("record still torn after the resume: torn=%v err=%v", torn, err)
	}
	again.Close()
}

// resumeRefuses writes body as a record and requires ResumeRecord to
// refuse it and to leave the file as it was. It returns the refusal.
func resumeRefuses(t *testing.T, body string) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := ResumeRecord(path)
	if err == nil {
		t.Fatal("resume accepted the record")
	}
	if data, _ := os.ReadFile(path); string(data) != body {
		t.Fatal("a refused resume changed the file")
	}
	return err
}

const (
	testHeader = `{"schema":"` + report.BenchSchema + `","stamp":"s","class":"S","threads":[1],"benchmarks":["CG"],"env":{}}` + "\n"
	testCell   = `{"benchmark":"CG","class":"S","threads":0}` + "\n"
)

// TestResumedCellCarriesItsHost: a record started on another machine
// (its header env is not this host's) and resumed here gets cell lines
// that carry this host's env, so npbperf does not credit them to the
// first machine. The replayed line keeps what it had.
func TestResumedCellCarriesItsHost(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.json")
	if err := os.WriteFile(path, []byte(testHeader+testCell), 0o644); err != nil {
		t.Fatal(err)
	}
	re, _, err := ResumeRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.RunSweep(npbgo.CG, 'S', []int{1}, Options{}); err != nil {
		t.Fatal(err)
	}
	re.Close()
	cells := readRecord(t, path).Cells
	if len(cells) != 2 || cells[0].Env != nil {
		t.Fatalf("cells = %+v, want the replayed line unchanged and one new line", cells)
	}
	if env := cells[1].Env; env == nil || *env != hostEnv() {
		t.Fatalf("resumed cell env = %+v, want this host's %+v", env, hostEnv())
	}
}

func TestResumeRefusesEmptyRecord(t *testing.T) { resumeRefuses(t, "") }

func TestResumeRefusesUnknownSchema(t *testing.T) {
	err := resumeRefuses(t, `{"schema":"npbgo/bench/v99"}`+"\n")
	if !strings.Contains(err.Error(), "schema") {
		t.Fatalf("refusal does not name the schema: %v", err)
	}
}

// TestResumeRefusesCorruptMidFile: a damaged line followed by a whole
// one is not a torn tail; resume must refuse rather than drop lines.
func TestResumeRefusesCorruptMidFile(t *testing.T) {
	resumeRefuses(t, testHeader+"]]not json[[\n"+testCell)
}

func TestResumeRefusesTwoRecords(t *testing.T) {
	resumeRefuses(t, testHeader+testCell+testHeader)
}

// TestPaperEntriesRoundTrip: a Table 1 entry's serial and two-thread
// cells and a Table 7 entry's serial cell, swept at class A into one
// record, read back verified through the one loader, and npbperf
// scaling's analysis accepts the record with a baseline for both.
func TestPaperEntriesRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "paper.json")
	rec, err := CreateRecord(path, "test", []npbgo.Benchmark{"STENCIL1", "LUFACT"}, 'A', []int{2}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.RunSweep("STENCIL1", 'A', []int{2}, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := rec.RunSweep("LUFACT", 'A', nil, Options{}); err != nil {
		t.Fatal(err)
	}
	got := readRecord(t, path)
	var keys []CellKey
	for _, c := range got.Cells {
		keys = append(keys, CellKey{c.Benchmark, c.Class, c.Threads})
		if !c.Verified || c.Elapsed <= 0 || c.Mops <= 0 {
			t.Fatalf("cell line malformed: %+v", c)
		}
	}
	want := []CellKey{{"STENCIL1", "A", 0}, {"STENCIL1", "A", 2}, {"LUFACT", "A", 0}}
	if !slices.Equal(keys, want) {
		t.Fatalf("cell lines %v, want %v", keys, want)
	}
	groups := perfstat.Scaling(got)
	if len(groups) != 2 || groups[0].BaseSec <= 0 || groups[1].BaseSec <= 0 {
		t.Fatalf("scaling analysis: %+v", groups)
	}
	if table := perfstat.ScalingTable(groups); !strings.Contains(table, "STENCIL1") || !strings.Contains(table, "LUFACT") {
		t.Fatalf("scaling table:\n%s", table)
	}
}

// TestResumedTablesMatchLive: the tables are views of the record's
// lines, so resuming a complete record prints what the live sweep did,
// byte for byte — a FAIL(panic) cell as FAIL(panic), an unverified
// cell as no(tier), and every cell's runtime metrics. The live sweep
// runs IS.S with obs on: its serial cell fails through the
// harness.cell panic fault and its t1 cell completes unverified; the
// resume executes nothing.
func TestResumedTablesMatchLive(t *testing.T) {
	fault.Activate(fault.Rule{Site: "harness.cell", Kind: fault.KindPanic})
	defer fault.Reset()
	real := runContext
	t.Cleanup(func() { runContext = real })
	runContext = func(ctx context.Context, cfg npbgo.Config) (npbgo.Result, error) {
		res, err := real(ctx, cfg)
		if cfg.Threads == 1 && err == nil {
			res.Verified, res.Tier = false, "none" // as a class without reference values
		}
		return res, err
	}
	threads := []int{1, 2}
	rec, path := newRecord(t, []npbgo.Benchmark{npbgo.IS}, threads)
	opt := Options{Obs: true}
	liveErr := rec.RunSweep(npbgo.IS, 'S', threads, opt)
	if liveErr == nil {
		t.Fatal("live sweep succeeded despite the serial cell's panic")
	}
	suite, obs := SuiteTable("T", rec), ObsTable("O", rec.BenchRecord)
	rec.Close()
	for _, want := range []string{"FAIL(panic)", "no(none)"} {
		if !strings.Contains(suite, want) {
			t.Fatalf("live table lacks %s:\n%s", want, suite)
		}
	}
	for _, row := range []string{"IS.S t1 ", "IS.S t2 "} {
		if !strings.Contains(obs, row) {
			t.Fatalf("live runtime metrics lack the %q row:\n%s", row, obs)
		}
	}

	runContext = func(context.Context, npbgo.Config) (npbgo.Result, error) {
		t.Fatal("the resume ran a recorded cell")
		return npbgo.Result{}, nil
	}
	re, _, err := ResumeRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.RunSweep(npbgo.IS, 'S', threads, opt); err == nil || err.Error() != liveErr.Error() {
		t.Fatalf("resumed sweep error = %v, want the live one: %v", err, liveErr)
	}
	if got := SuiteTable("T", re); got != suite {
		t.Errorf("resumed suite table differs from the live one:\n%s\nlive:\n%s", got, suite)
	}
	if got := ObsTable("O", re.BenchRecord); got != obs {
		t.Errorf("resumed runtime metrics differ from the live ones:\n%s\nlive:\n%s", got, obs)
	}
}
