package profile

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// The checked-in fixtures are real runtime/pprof output captured once
// via this package's own Capture (a spin loop under CPU profiling, then
// the allocs profile). They are frozen, so the figures `go tool pprof`
// reports for them are exact: a toolchain whose pprof prints its -top
// report differently fails here, by name.

func TestGoldenCPUFixture(t *testing.T) {
	tab, err := Hot("testdata/cpu.pprof", false)
	if err != nil {
		t.Fatalf("Hot: %v", err)
	}
	if tab.Type != "cpu" || tab.Unit != "nanoseconds" || tab.Total != 1_170_000_000 {
		t.Fatalf("dimension = %s/%s total %d, want cpu/nanoseconds total 1170000000", tab.Type, tab.Unit, tab.Total)
	}
	if got := tab.AttributedPct; got < 99.1449 || got > 99.1453 {
		t.Fatalf("AttributedPct = %.4f%%, want 99.145%% (spin lives under %s)", got, KernelPrefix)
	}
	top := tab.Top(1)
	if len(top) != 1 || top[0] != (FuncStat{Name: "npbgo/internal/profile.spin",
		Flat: 1_140_000_000, FlatPct: 100 * 1.14 / 1.17, Cum: 1_160_000_000, CumPct: 100 * 1.16 / 1.17}) {
		t.Fatalf("top row = %+v, want spin at 1.14s flat, 1.16s cum", top)
	}
	if got := tab.FormatValue(top[0].Flat); got != "1.140s" {
		t.Fatalf("FormatValue = %q", got)
	}
	// The test harness frames appear with zero flat but high cum — the
	// flat/cum distinction the table exists for — and pprof's inline
	// markers are stripped from names.
	byName := map[string]FuncStat{}
	for _, f := range tab.Funcs {
		byName[f.Name] = f
	}
	if r := byName["testing.tRunner"]; r.Flat != 0 || r.Cum != 1_160_000_000 {
		t.Fatalf("tRunner = %+v, want flat 0 / cum 1.16s", r)
	}
	if n := byName["runtime.nanotime"]; n.Flat != 20_000_000 {
		t.Fatalf("runtime.nanotime = %+v, want 20ms flat under its name without (inline)", n)
	}
	if len(tab.Funcs) != 12 {
		t.Fatalf("%d functions, want 12", len(tab.Funcs))
	}
}

func TestGoldenHeapFixture(t *testing.T) {
	tab, err := Hot("testdata/heap.pprof", true)
	if err != nil {
		t.Fatalf("Hot: %v", err)
	}
	if tab.Type != "alloc_space" || tab.Unit != "bytes" || tab.Total != 3_360_919 {
		t.Fatalf("dimension = %s/%s total %d, want alloc_space/bytes total 3360919", tab.Type, tab.Unit, tab.Total)
	}
	if got := tab.AttributedPct; got < 36.0815 || got > 36.0825 {
		t.Fatalf("AttributedPct = %.4f%%, want 36.082%%", got)
	}
	if got := tab.FormatValue(tab.Total); got != "3.21MiB" {
		t.Fatalf("byte formatting = %q", got)
	}
	// Ties on flat fall back to cum, then name (pprof itself orders
	// them by name alone): the zero-flat callers come heaviest first.
	var zeroFlat []string
	for _, f := range tab.Funcs[4:] {
		zeroFlat = append(zeroFlat, f.Name)
	}
	want := []string{"compress/gzip.(*Writer).Write", "runtime/pprof.(*profileBuilder).build",
		"runtime/pprof.profileWriter", "npbgo/internal/profile.Start",
		"npbgo/internal/profile.TestGenerateFixtures", "testing.tRunner"}
	if !slices.Equal(zeroFlat, want) {
		t.Fatalf("zero-flat rows = %q, want %q", zeroFlat, want)
	}
}

// TestHotRejectsUnreadable: what a crashed or damaged capture leaves
// behind is an error with pprof's reason, never an empty table.
func TestHotRejectsUnreadable(t *testing.T) {
	dir := t.TempDir()
	data, err := os.ReadFile("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"empty":       nil,
		"cut gzip":    data[:len(data)/2],
		"not pprof":   []byte("hello\n"),
		"gzip header": data[:10],
	}
	for name, body := range files {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, body, 0o644); err != nil {
			t.Fatal(err)
		}
		if tab, err := Hot(p, false); err == nil {
			t.Errorf("%s: Hot succeeded with %+v, want error", name, tab)
		}
	}
	if _, err := Hot(filepath.Join(dir, "absent.pprof"), false); err == nil {
		t.Error("Hot(absent file) succeeded")
	}
}

// The golden files stay gzipped after a byte-level round trip through
// disk — guards against fixture corruption by tooling (git filters,
// editors) going unnoticed.
func TestGoldenFixturesAreGzipped(t *testing.T) {
	for _, f := range []string{"testdata/cpu.pprof", "testdata/heap.pprof"} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Fatalf("%s is not gzipped (magic = %x)", f, data[:2])
		}
	}
}
