package main

import (
	"strings"
	"testing"
)

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
