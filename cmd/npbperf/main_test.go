package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"npbgo/internal/report"
)

// golden is the shared bench-record fixture of the report package.
const golden = "../../internal/report/testdata/bench_v2.jsonl"

// writeRecord writes one record into dir, as npbsuite -bench-json lays
// it out, and returns its path.
func writeRecord(t *testing.T, dir, name string, rec report.BenchRecord) string {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	for _, c := range rec.Cells {
		if err := report.WriteJSONL(&buf, c); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"frobnicate"},
		// npbperf compares no records: these are unknown subcommands,
		// even over valid input.
		{"stats", golden},
		{"compare", golden, golden},
		{"profdiff", golden, golden},
		// The hardware-counter view was deleted.
		{"counters", golden},
		{"scaling"},
		// The anomaly thresholds are constants, not flags.
		{"scaling", "-imbalance", "99", golden},
		{"scaling", "-barrier-share", "0.99", golden},
		{"scaling", "-small-work", "1e-9", golden},
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if !strings.Contains(errBuf.String(), "usage") && !strings.Contains(errBuf.String(), "npbperf") {
			t.Errorf("run(%v) stderr unhelpful: %q", args, errBuf.String())
		}
	}
}

func TestScalingRejectsUnknownSchema(t *testing.T) {
	bad := writeRecord(t, t.TempDir(), "bad.json", report.BenchRecord{
		Schema: "npbgo/bench/v999", Stamp: "A", Class: "S",
		Cells: []report.CellMetrics{{Benchmark: "CG", Class: "S", Threads: 2, Elapsed: 1.0, Samples: []float64{1.0}}},
	})
	var out, errBuf bytes.Buffer
	if code := run([]string{"scaling", bad}, &out, &errBuf); code != 2 {
		t.Fatalf("unknown schema exit %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "npbgo/bench/v999") {
		t.Fatalf("error should name the schema: %s", errBuf.String())
	}
}

func TestScalingGoldenRecord(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"scaling", golden}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	s := out.String()
	// The three paper-§5 anomaly classes must all fire on the fixture:
	// CG t4 is imbalanced, LU t4 is barrier-bound, IS is sub-ms.
	for _, want := range []string{"load-imbalance", "barrier-sync", "small-work", "e(KF)", "CG.S t4", "record 20260801T120000Z"} {
		if !strings.Contains(s, want) {
			t.Fatalf("scaling output missing %q:\n%s", want, s)
		}
	}
}

// TestScalingFailOn: the golden fixture diagnoses all three anomaly
// classes, so -fail-on must turn each named one into exit 1, name the
// flagged cell on stderr, stay 0 when the listed anomaly is absent
// (a balanced record), and reject unknown anomaly names up front — a
// typo in a CI gate must fail the job, not silently never match.
func TestScalingFailOn(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"scaling", "-fail-on", "load-imbalance", golden}, &out, &errBuf); code != 1 {
		t.Fatalf("fail-on load-imbalance exit %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "load-imbalance") || !strings.Contains(errBuf.String(), "CG") {
		t.Fatalf("stderr should name the anomaly and cell: %s", errBuf.String())
	}
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"scaling", "-fail-on", "load-imbalance,barrier-sync", "-json", golden}, &out, &errBuf); code != 1 {
		t.Fatalf("fail-on list exit %d, want 1", code)
	}
	out.Reset()
	errBuf.Reset()
	balanced := writeRecord(t, t.TempDir(), "balanced.json", report.BenchRecord{
		Schema: report.BenchSchema, Stamp: "B", Class: "S",
		Cells: []report.CellMetrics{
			{Benchmark: "CG", Class: "S", Threads: 0, Samples: []float64{0.4}},
			{Benchmark: "CG", Class: "S", Threads: 2, Samples: []float64{0.2}, Imbalance: 1.02},
		},
	})
	if code := run([]string{"scaling", "-fail-on", "load-imbalance", balanced}, &out, &errBuf); code != 0 {
		t.Fatalf("undiagnosed fail-on exit %d, want 0: %s", code, errBuf.String())
	}
	out.Reset()
	errBuf.Reset()
	// memory-bound, the deleted rule over hardware counters, is an
	// unknown name too: a gate that still lists it must fail.
	for _, name := range []string{"imbalance", "memory-bound"} {
		out.Reset()
		errBuf.Reset()
		if code := run([]string{"scaling", "-fail-on", name, golden}, &out, &errBuf); code != 2 {
			t.Fatalf("unknown fail-on name %q exit %d, want 2", name, code)
		}
		if !strings.Contains(errBuf.String(), "load-imbalance") {
			t.Fatalf("error should list the known names: %s", errBuf.String())
		}
	}
}

func TestScalingJSONAndThresholds(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"scaling", "-json", golden}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	var doc struct {
		Groups []struct {
			Benchmark string   `json:"benchmark"`
			Anomalies []string `json:"anomalies"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("scaling -json not parseable: %v", err)
	}
	// CG, IS, LU; EP has only a failed cell and forms no group.
	if len(doc.Groups) != 3 {
		t.Fatalf("scaling -json groups: %+v", doc.Groups)
	}
	// Each rule fires at its threshold and not just under it:
	// imbalance 1.5, barrier share 0.2 of threads x median, a median
	// under 1 ms.
	for _, c := range []struct {
		at, under report.CellMetrics
		anomaly   string
	}{
		{report.CellMetrics{Imbalance: 1.5}, report.CellMetrics{Imbalance: 1.49}, "load-imbalance"},
		{report.CellMetrics{BarrierWait: 0.4}, report.CellMetrics{BarrierWait: 0.39}, "barrier-sync"},
		{report.CellMetrics{Samples: []float64{0.00099}}, report.CellMetrics{Samples: []float64{0.001}}, "small-work"},
	} {
		for _, fires := range []bool{true, false} {
			cell := c.under
			if fires {
				cell = c.at
			}
			cell.Benchmark, cell.Class, cell.Threads = "CG", "S", 2
			if cell.Samples == nil {
				cell.Samples = []float64{1}
			}
			path := writeRecord(t, t.TempDir(), "r.json", report.BenchRecord{Schema: report.BenchSchema, Stamp: "T", Class: "S",
				Cells: []report.CellMetrics{cell}})
			out.Reset()
			if code := run([]string{"scaling", path}, &out, &errBuf); code != 0 {
				t.Fatalf("exit %d: %s", code, errBuf.String())
			}
			if got := strings.Contains(out.String(), c.anomaly); got != fires {
				t.Errorf("%+v: %s flagged = %v, want %v:\n%s", cell, c.anomaly, got, fires, out.String())
			}
		}
	}
}
