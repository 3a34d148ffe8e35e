package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"npbgo/internal/perfcount"
	"npbgo/internal/report"
)

// The profile fixtures are the report package's bench-record analogue:
// real runtime/pprof output frozen in the profile package's testdata.
const (
	cpuFixture  = "../../internal/profile/testdata/cpu.pprof"
	heapFixture = "../../internal/profile/testdata/heap.pprof"
)

// profiledRecord builds a one-cell record whose CG.S t2 cell points at
// the given profile files, with imbalance and counters to join.
func profiledRecord(stamp, cpu, heap string) report.BenchRecord {
	return report.BenchRecord{
		Schema: report.BenchSchema, Stamp: stamp, Class: "S", GoMaxProcs: 2, NumCPU: 2,
		Cells: []report.CellMetrics{{Benchmark: "CG", Class: "S", Threads: 2,
			Elapsed: 1.0, Verified: true,
			CPUProfile: cpu, HeapProfile: heap,
			Imbalance: 1.37,
			Counters: &perfcount.Stats{Set: "hardware",
				Values: perfcount.Values{Cycles: 100, Instructions: 250}},
		}},
	}
}

func absFixture(t *testing.T, rel string) string {
	t.Helper()
	abs, err := filepath.Abs(rel)
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func TestHotspotsGoldenFixture(t *testing.T) {
	dir := t.TempDir()
	rec := writeRecord(t, dir, "rec.json",
		profiledRecord("P1", absFixture(t, cpuFixture), absFixture(t, heapFixture)))
	var out, errBuf bytes.Buffer
	if code := run([]string{"hotspots", rec}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	s := out.String()
	for _, want := range []string{"CG.S t2", "npbgo/internal/profile.spin", "1.37", "2.50", "record P1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("hotspots output missing %q (the imbalance/IPC join and the hot function):\n%s", want, s)
		}
	}
}

func TestHotspotsJSONSchema(t *testing.T) {
	dir := t.TempDir()
	rec := writeRecord(t, dir, "rec.json",
		profiledRecord("P1", absFixture(t, cpuFixture), absFixture(t, heapFixture)))
	var out, errBuf bytes.Buffer
	if code := run([]string{"hotspots", "-json", "-top", "3", rec}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	recs, err := report.ReadProfileRecords(&out)
	if err != nil {
		t.Fatalf("hotspots -json is not a readable npbgo/profile/v1 stream: %v", err)
	}
	if len(recs) != 1 || recs[0].Schema != report.ProfileSchema || recs[0].Stamp != "P1" {
		t.Fatalf("profile record header wrong: %+v", recs[0])
	}
	cells := recs[0].Cells
	if len(cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(cells))
	}
	c := cells[0]
	if c.Type != "cpu" || c.Unit != "nanoseconds" || c.Samples != 4 {
		t.Fatalf("aggregated dimension wrong: %+v", c)
	}
	if len(c.Functions) != 3 {
		t.Fatalf("-top 3 returned %d functions", len(c.Functions))
	}
	if c.Functions[0].Name != "npbgo/internal/profile.spin" {
		t.Fatalf("top function = %q", c.Functions[0].Name)
	}
	if c.Imbalance != 1.37 || c.IPC != 2.5 {
		t.Fatalf("diagnostics not joined: imbalance=%v ipc=%v", c.Imbalance, c.IPC)
	}
	if c.AttributedPct < 90 {
		t.Fatalf("AttributedPct = %.1f", c.AttributedPct)
	}
}

func TestHotspotsHeapDimension(t *testing.T) {
	dir := t.TempDir()
	rec := writeRecord(t, dir, "rec.json",
		profiledRecord("P1", absFixture(t, cpuFixture), absFixture(t, heapFixture)))
	var out, errBuf bytes.Buffer
	if code := run([]string{"hotspots", "-heap", "-json", rec}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	recs, err := report.ReadProfileRecords(&out)
	if err != nil {
		t.Fatal(err)
	}
	if c := recs[0].Cells[0]; c.Type != "alloc_space" || c.Unit != "bytes" {
		t.Fatalf("heap dimension wrong: %+v", c)
	}
}

// TestHotspotsMinAttrGate: the fixture attributes ~99% to
// npbgo/internal/ code, so a floor of 95 passes and 99.9 fails — with
// the breaching cell named on stderr.
func TestHotspotsMinAttrGate(t *testing.T) {
	dir := t.TempDir()
	rec := writeRecord(t, dir, "rec.json",
		profiledRecord("P1", absFixture(t, cpuFixture), absFixture(t, heapFixture)))
	var out, errBuf bytes.Buffer
	if code := run([]string{"hotspots", "-min-attr", "95", rec}, &out, &errBuf); code != 0 {
		t.Fatalf("floor 95 exit %d: %s", code, errBuf.String())
	}
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"hotspots", "-min-attr", "99.9", rec}, &out, &errBuf); code != 1 {
		t.Fatalf("floor 99.9 exit %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "CG.S t2") {
		t.Fatalf("stderr should name the breaching cell: %s", errBuf.String())
	}
}

// TestHotspotsMissingProfileIsNoted: a record pointing at a vanished
// file renders an explicit note and, under -require with no other
// decodable cell, exits 1 — absence never passes silently.
func TestHotspotsMissingProfileIsNoted(t *testing.T) {
	dir := t.TempDir()
	rec := writeRecord(t, dir, "rec.json",
		profiledRecord("P1", filepath.Join(dir, "gone.cpu.pprof"), ""))
	var out, errBuf bytes.Buffer
	if code := run([]string{"hotspots", rec}, &out, &errBuf); code != 0 {
		t.Fatalf("missing profile should not fail without -require: %d %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "undecodable") {
		t.Fatalf("missing profile must render a note:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"hotspots", "-require", rec}, &out, &errBuf); code != 1 {
		t.Fatalf("-require with nothing decodable exit %d, want 1", code)
	}
}

// TestHotspotsTruncatedProfileIsNoted: a crash-cut capture (valid gzip
// prefix, cut short) must surface as a per-cell note, not crash the
// command or pass as data.
func TestHotspotsTruncatedProfileIsNoted(t *testing.T) {
	dir := t.TempDir()
	data, err := os.ReadFile(absFixture(t, cpuFixture))
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.cpu.pprof")
	if err := os.WriteFile(cut, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	rec := writeRecord(t, dir, "rec.json", profiledRecord("P1", cut, ""))
	var out, errBuf bytes.Buffer
	if code := run([]string{"hotspots", rec}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "undecodable") {
		t.Fatalf("truncated profile must render a note:\n%s", out.String())
	}
}

// TestHotspotsResolvesRecordRelativePaths: profile paths recorded
// relative to the sweep's working directory resolve against the record
// file's own directory — the `npbsuite -instrument profile -bench-json results/`
// layout read from anywhere.
func TestHotspotsResolvesRecordRelativePaths(t *testing.T) {
	dir := t.TempDir()
	data, err := os.ReadFile(absFixture(t, cpuFixture))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "profiles"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "profiles", "CG.S.t2.cpu.pprof"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := writeRecord(t, dir, "rec.json",
		profiledRecord("P1", filepath.Join("profiles", "CG.S.t2.cpu.pprof"), ""))
	var out, errBuf bytes.Buffer
	if code := run([]string{"hotspots", "-require", rec}, &out, &errBuf); code != 0 {
		t.Fatalf("record-relative path did not resolve: exit %d\n%s%s", code, out.String(), errBuf.String())
	}
	if !strings.Contains(out.String(), "npbgo/internal/profile.spin") {
		t.Fatalf("resolved profile not decoded:\n%s", out.String())
	}
}

// TestProfdiffIdenticalExitsZero is the acceptance criterion: two
// sweeps pointing at identical profiles must produce zero significant
// shifts and exit 0.
func TestProfdiffIdenticalExitsZero(t *testing.T) {
	dir := t.TempDir()
	cpu := absFixture(t, cpuFixture)
	a := writeRecord(t, dir, "a.json", profiledRecord("A", cpu, ""))
	b := writeRecord(t, dir, "b.json", profiledRecord("B", cpu, ""))
	var out, errBuf bytes.Buffer
	if code := run([]string{"profdiff", a, b}, &out, &errBuf); code != 0 {
		t.Fatalf("identical profdiff exit %d:\n%s%s", code, out.String(), errBuf.String())
	}
	if !strings.Contains(out.String(), "0 significant shift(s)") {
		t.Fatalf("summary missing:\n%s", out.String())
	}
}

// TestProfdiffShiftExitsOne: diffing against a profile with a wholly
// different hot set (the heap fixture stood in as head) must flag and
// exit 1.
func TestProfdiffShiftExitsOne(t *testing.T) {
	dir := t.TempDir()
	a := writeRecord(t, dir, "a.json", profiledRecord("A", absFixture(t, cpuFixture), ""))
	b := writeRecord(t, dir, "b.json", profiledRecord("B", absFixture(t, heapFixture), ""))
	var out, errBuf bytes.Buffer
	if code := run([]string{"profdiff", "-json", a, b}, &out, &errBuf); code != 1 {
		t.Fatalf("shifted profdiff exit %d, want 1:\n%s", code, out.String())
	}
	var doc struct {
		Significant int `json:"significant"`
		Cells       []struct {
			Cell string `json:"cell"`
			Diff struct {
				Deltas []struct {
					Name        string  `json:"name"`
					Delta       float64 `json:"delta"`
					Significant bool    `json:"significant"`
				} `json:"deltas"`
			} `json:"diff"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("profdiff -json not parseable: %v", err)
	}
	if doc.Significant == 0 || len(doc.Cells) != 1 {
		t.Fatalf("shift not flagged: %+v", doc)
	}
}

// TestProfdiffUndecodableSideIsNoted: one side's profile vanishing
// yields a per-cell note and exit 0 — a missing measurement is not a
// regression verdict.
func TestProfdiffUndecodableSideIsNoted(t *testing.T) {
	dir := t.TempDir()
	a := writeRecord(t, dir, "a.json", profiledRecord("A", absFixture(t, cpuFixture), ""))
	b := writeRecord(t, dir, "b.json", profiledRecord("B", filepath.Join(dir, "gone.pprof"), ""))
	var out, errBuf bytes.Buffer
	if code := run([]string{"profdiff", a, b}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, out.String(), errBuf.String())
	}
	if !strings.Contains(out.String(), "undecodable") {
		t.Fatalf("missing side must be noted:\n%s", out.String())
	}
}
