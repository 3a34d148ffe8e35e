package npbgo

import (
	"runtime"
	"testing"

	"npbgo/internal/kernel"
	"npbgo/internal/suite"
)

// TestFootprintGrowsWithClass: each benchmark's estimate must be
// positive and non-decreasing along the class ladder — the property the
// admission guard relies on (a cell skipped at class B must not be
// admitted at class C).
func TestFootprintGrowsWithClass(t *testing.T) {
	for _, b := range Benchmarks() {
		var prev uint64
		for _, class := range Classes() {
			got, err := Config{Benchmark: b, Class: class, Threads: 2}.FootprintBytes()
			if err != nil {
				t.Fatalf("%s.%c: %v", b, class, err)
			}
			if got == 0 {
				t.Fatalf("%s.%c: zero footprint", b, class)
			}
			if got < prev {
				t.Fatalf("%s.%c: footprint %d below class predecessor %d", b, class, got, prev)
			}
			prev = got
		}
	}
}

// TestFootprintScalesWithThreads: benchmarks with per-thread arrays
// (IS's density replicas are the clearest case) must charge for them.
func TestFootprintScalesWithThreads(t *testing.T) {
	one, err := Config{Benchmark: IS, Class: 'A', Threads: 1}.FootprintBytes()
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Config{Benchmark: IS, Class: 'A', Threads: 8}.FootprintBytes()
	if err != nil {
		t.Fatal(err)
	}
	if eight <= one {
		t.Fatalf("IS footprint flat across threads: t1=%d t8=%d", one, eight)
	}
}

// TestFootprintOrdersOfMagnitude pins a few anchors so a broken
// estimator (bytes-vs-words slips, dropped factors) fails loudly: FT
// class A is two 256·256·128 complex grids and the real twiddle array
// — 320 MiB — while class S cells are tens of MiB at most.
func TestFootprintOrdersOfMagnitude(t *testing.T) {
	ftA, err := Config{Benchmark: FT, Class: 'A', Threads: 1}.FootprintBytes()
	if err != nil {
		t.Fatal(err)
	}
	if ftA < 300<<20 || ftA > 400<<20 {
		t.Fatalf("FT.A footprint %d outside [300MiB, 400MiB]", ftA)
	}
	cgS, err := Config{Benchmark: CG, Class: 'S', Threads: 1}.FootprintBytes()
	if err != nil {
		t.Fatal(err)
	}
	if cgS > 64<<20 {
		t.Fatalf("CG.S footprint %d implausibly large", cgS)
	}
}

func TestFootprintRejectsUnknown(t *testing.T) {
	if _, err := (Config{Benchmark: "XX", Class: 'S'}).FootprintBytes(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := (Config{Benchmark: FT, Class: 'Z'}).FootprintBytes(); err == nil {
		t.Fatal("unknown class accepted")
	}
}

// TestFootprintDefaults: zero-valued Class/Threads follow RunContext's
// defaults instead of erroring.
func TestFootprintDefaults(t *testing.T) {
	got, err := Config{Benchmark: EP}.FootprintBytes()
	if err != nil || got == 0 {
		t.Fatalf("defaults not applied: %d, %v", got, err)
	}
}

// TestFootprintCoversAllocation: for the three pseudo-applications,
// whose scratch grows with the grid, and CG, whose matrix makea builds
// and New converts in place (CSR, then SELL), the estimate must cover
// at least 95 % of what New allocates (the runtime's TotalAlloc across
// it), at classes S and W and at one and three threads, so the
// admission guard does not under-count a new array, and at most 105 %,
// so it does not keep counting an array that is gone.
func TestFootprintCoversAllocation(t *testing.T) {
	for _, name := range []string{"BT", "SP", "LU", "CG"} {
		row, _ := suite.Lookup(name)
		for _, class := range []byte{'S', 'W'} {
			for _, threads := range []int{1, 3} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				k, err := row.New(class, threads, kernel.Env{})
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				runtime.KeepAlive(k)
				alloc := after.TotalAlloc - before.TotalAlloc
				est, err := row.Footprint(class, threads)
				if err != nil {
					t.Fatal(err)
				}
				if r := float64(est) / float64(alloc); r < 0.95 || r > 1.05 {
					t.Errorf("%s.%c t%d: footprint %d bytes, New allocated %d (ratio %.3f)", name, class, threads, est, alloc, r)
				}
			}
		}
	}
}
