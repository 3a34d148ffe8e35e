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
		{"scaling"},
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
// (loose thresholds), and reject unknown anomaly names up front — a
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
	if code := run([]string{"scaling", "-imbalance", "99", "-fail-on", "load-imbalance", golden}, &out, &errBuf); code != 0 {
		t.Fatalf("undiagnosed fail-on exit %d, want 0: %s", code, errBuf.String())
	}
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"scaling", "-fail-on", "imbalance", golden}, &out, &errBuf); code != 2 {
		t.Fatalf("unknown fail-on name exit %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "load-imbalance") {
		t.Fatalf("error should list the known names: %s", errBuf.String())
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
	// Thresholds loose enough that nothing flags.
	out.Reset()
	if code := run([]string{"scaling", "-imbalance", "99", "-barrier-share", "0.99", "-small-work", "1e-9", golden}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, flag := range []string{"load-imbalance", "barrier-sync", "small-work"} {
		if strings.Contains(out.String(), flag) {
			t.Fatalf("loose thresholds still flagged %s:\n%s", flag, out.String())
		}
	}
}
