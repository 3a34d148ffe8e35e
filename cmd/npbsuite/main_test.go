package main

import "testing"

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

// TestCheckIsolate: -isolate refuses the instrument whose data a child
// process cannot hand back (obs) and keeps those that cross the
// boundary (counters, profile, trace); without -isolate every
// instrument runs.
func TestCheckIsolate(t *testing.T) {
	for _, c := range []struct {
		isolate bool
		list    string
		ok      bool
	}{
		{true, "", true},
		{true, "counters,profile", true},
		{true, "obs", false},
		{true, "trace", true},
		{true, "counters,obs", false},
		{true, "profile,trace", true},
		{true, "obs,trace", false},
		{false, "obs,counters,trace,profile", true},
	} {
		on, err := parseInstruments(c.list)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkIsolate(c.isolate, on); (err == nil) != c.ok {
			t.Errorf("checkIsolate(%v, %q) = %v, want ok %v", c.isolate, c.list, err, c.ok)
		}
	}
}
