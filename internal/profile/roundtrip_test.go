package profile_test

import (
	"cmp"
	"slices"
	"strings"
	"testing"
	"time"

	"npbgo"
	"npbgo/internal/profile"
)

// TestCGRoundTrip is the end-to-end claim of the profiling layer: a
// real CG run captured with this package's Capture and read through Hot
// must attribute its CPU to the CG kernel symbols — the paper's §4
// "which function is the serial gap in" question.
func TestCGRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := profile.Start(dir, "CG.S.t2")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Accumulate enough CPU under the capture for a stable sample set:
	// CG class S is short, so repeat it until ~1.5s has elapsed.
	for start := time.Now(); time.Since(start) < 1500*time.Millisecond; {
		res, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 2})
		if err != nil {
			c.Stop()
			t.Fatalf("CG run: %v", err)
		}
		if !res.Verified {
			c.Stop()
			t.Fatal("CG run did not verify under profiling")
		}
	}
	if err := c.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	tab, err := profile.Hot(c.CPUPath(), false)
	if err != nil {
		t.Fatalf("read captured CPU profile: %v", err)
	}
	if tab.Total < 200_000_000 {
		t.Fatalf("only %dns of samples after 1.5s of CG (profiler off?)", tab.Total)
	}

	if raceEnabled {
		// The race detector's hooks are the leaves of CG's loops, so they
		// top the flat list; CG must still be on the hot stacks.
		assertCGInTop(t, tab.Funcs, func(f profile.FuncStat) int64 { return f.Cum }, "cumulative")
	} else {
		assertCGFlat(t, tab)
	}

	// The heap side reads too, and carries CG's setup allocations.
	if _, err := profile.Hot(c.HeapPath(), true); err != nil {
		t.Fatalf("read captured heap profile: %v", err)
	}
}

// assertCGFlat checks the flat view of a CG profile: a cg.* function in
// the top 10, this module's code on top, and most CPU attributed.
func assertCGFlat(t *testing.T, tab *profile.Table) {
	t.Helper()
	// CG's inner products and sparse mat-vec dominate; depending on
	// inlining the leaf is a cg.* method or the team runtime driving it.
	assertCGInTop(t, tab.Funcs, func(f profile.FuncStat) int64 { return f.Flat }, "flat")
	if !strings.HasPrefix(tab.Funcs[0].Name, "npbgo/") {
		t.Fatalf("top flat function %q is not this module's code", tab.Funcs[0].Name)
	}
	if tab.AttributedPct < 60 {
		t.Fatalf("AttributedPct = %.1f%%, want >= 60%% of CPU inside %s",
			tab.AttributedPct, profile.KernelPrefix)
	}
}

// assertCGInTop fails unless an npbgo/internal/cg.* function is among
// the 10 heaviest of funcs by the given value.
func assertCGInTop(t *testing.T, funcs []profile.FuncStat, value func(profile.FuncStat) int64, view string) {
	t.Helper()
	top := slices.Clone(funcs)
	slices.SortStableFunc(top, func(a, b profile.FuncStat) int { return cmp.Compare(value(b), value(a)) })
	top = top[:min(10, len(top))]
	var names []string
	for _, f := range top {
		if strings.HasPrefix(f.Name, "npbgo/internal/cg.") {
			return
		}
		names = append(names, f.Name)
	}
	t.Fatalf("no npbgo/internal/cg.* function in the top 10 %s: %v", view, names)
}
