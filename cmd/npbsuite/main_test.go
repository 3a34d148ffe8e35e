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
