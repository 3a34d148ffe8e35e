package npbgo

import "testing"

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
