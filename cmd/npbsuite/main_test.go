package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"npbgo/internal/report"
)

// TestMain runs npbsuite itself, not the tests, when NPBSUITE_ARGS holds
// its arguments (one a line), so a test can run the command as a
// process and read its exit code.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("NPBSUITE_ARGS"); ok {
		os.Args = append([]string{"npbsuite"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// npbsuite runs the command with args and requires exit code want.
func npbsuite(t *testing.T, want int, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "NPBSUITE_ARGS="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	code := 0
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	if code != want {
		t.Fatalf("npbsuite %s exited %d, want %d:\n%s", strings.Join(args, " "), code, want, out)
	}
}

// TestResumeKeepsRecordSchedule: -resume runs a record's pending cells
// under the schedule the record was started with, not under whatever
// -schedule says now. A dynamic CG,IS record cut to its header and
// CG's two lines resumes to four dynamic lines, also when the header
// predates the schedule field (the cells' schedule is used). A
// -schedule that disagrees, and a recorded schedule that is no longer
// accepted, exit 2 before any cell runs.
func TestResumeKeepsRecordSchedule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	npbsuite(t, 0, "-class", "S", "-bench", "CG,IS", "-threads", "2", "-schedule", "dynamic", "-bench-json", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) != 6 { // header, four cells, the empty tail
		t.Fatalf("record holds %d lines, want 5:\n%s", len(lines)-1, data)
	}
	// cut writes the header, edited by set (a nil value deletes the
	// key), and CG's two lines.
	cut := func(set map[string]any) {
		t.Helper()
		var head map[string]any
		if err := json.Unmarshal([]byte(lines[0]), &head); err != nil {
			t.Fatal(err)
		}
		for k, v := range set {
			if v == nil {
				delete(head, k)
			} else {
				head[k] = v
			}
		}
		h, err := json.Marshal(head)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(string(h)+"\n"+lines[1]+lines[2]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cells := func() []report.CellMetrics {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := report.ReadBenchRecords(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return recs[0].Cells
	}
	for _, c := range []struct {
		name string
		set  map[string]any
	}{
		{"header", nil},
		{"older header", map[string]any{"schedule": nil}},
	} {
		cut(c.set)
		npbsuite(t, 0, "-resume", path)
		got := cells()
		if len(got) != 4 {
			t.Fatalf("%s: resumed record holds %d cells, want 4", c.name, len(got))
		}
		for _, m := range got {
			if m.Schedule != "dynamic" {
				t.Errorf("%s: %s.%s threads=%d ran under %q, the record's schedule is dynamic",
					c.name, m.Benchmark, m.Class, m.Threads, m.Schedule)
			}
		}
	}
	for _, c := range []struct {
		set  map[string]any
		args []string
	}{
		{nil, []string{"-resume", path, "-schedule", "static"}},
		{map[string]any{"schedule": "guided"}, []string{"-resume", path}},
	} {
		cut(c.set)
		npbsuite(t, 2, c.args...)
		if got := cells(); len(got) != 2 {
			t.Fatalf("npbsuite %s left %d cells, want the 2 it started with", strings.Join(c.args, " "), len(got))
		}
	}
}

// TestParseClass: -class takes exactly one letter. An empty value used
// to index past the end of the string, and a longer one silently ran
// its first letter; both must be errors (exit 2). An unknown single
// letter passes, so the sweep can degrade it to FAIL(config) rows.
func TestParseClass(t *testing.T) {
	for _, c := range []struct {
		in   string
		want byte
		ok   bool
	}{
		{"S", 'S', true},
		{"w", 'W', true},
		{"Z", 'Z', true},
		{"", 0, false},
		{"SW", 0, false},
		{"ss", 0, false},
	} {
		got, err := parseClass(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseClass(%q) error = %v, want ok %v", c.in, err, c.ok)
			continue
		}
		if got != c.want {
			t.Errorf("parseClass(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestParseInstruments: -instrument takes any subset of obs, trace and
// profile. Any other name — counters, whose instrument was deleted,
// included — is an error (exit 2) that lists the valid names.
func TestParseInstruments(t *testing.T) {
	for _, in := range []string{"", "obs", "obs,trace,profile"} {
		on, err := parseInstruments(in)
		if err != nil {
			t.Errorf("parseInstruments(%q): %v", in, err)
			continue
		}
		if in != "" && len(on) != len(strings.Split(in, ",")) {
			t.Errorf("parseInstruments(%q) = %v", in, on)
		}
	}
	for _, in := range []string{"counters", "bogus", "obs,counters"} {
		_, err := parseInstruments(in)
		if err == nil {
			t.Errorf("parseInstruments(%q) accepted", in)
			continue
		}
		if !strings.Contains(err.Error(), "obs, trace, profile") {
			t.Errorf("parseInstruments(%q) error does not list the valid names: %v", in, err)
		}
	}
}
