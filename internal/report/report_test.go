package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := New("Title", "Name", "Time")
	tb.AddRow("BT.A", "1.23")
	tb.AddRow("LongBenchmarkName.C", "456")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if lines[0] != "Title" {
		t.Fatalf("first line %q", lines[0])
	}
	// Header, separator, two rows.
	if len(lines) != 5 {
		t.Fatalf("got %d lines: %q", len(lines), s)
	}
	if !strings.HasPrefix(lines[1], "Name") {
		t.Fatalf("header line %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Fatalf("separator line %q", lines[2])
	}
	// Both data rows should end at the same column (right-aligned 2nd col).
	if len(lines[3]) != len(lines[4]) {
		t.Fatalf("rows not aligned: %q vs %q", lines[3], lines[4])
	}
}

func TestRowsWiderThanHeader(t *testing.T) {
	tb := New("", "only")
	tb.AddRow("a", "b", "c")
	s := tb.String()
	if !strings.Contains(s, "c") {
		t.Fatalf("extra cells dropped: %q", s)
	}
}

func TestSecondsFormatting(t *testing.T) {
	cases := map[float64]string{
		123.4:  "123",
		12.34:  "12.3",
		1.234:  "1.23",
		0.1234: "0.123",
	}
	for in, want := range cases {
		if got := Seconds(in); got != want {
			t.Fatalf("Seconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(6.789) != "6.79" {
		t.Fatalf("Speedup = %q", Speedup(6.789))
	}
}
