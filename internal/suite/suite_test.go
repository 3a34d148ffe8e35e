package suite

import (
	"runtime"
	"testing"

	"npbgo/internal/kernel"
	"npbgo/internal/team"
)

// TestRows holds every row to the contract: it constructs at class S,
// reports a non-zero footprint, and rejects an unknown class and a
// thread count below one with an error and a nil Kernel.
func TestRows(t *testing.T) {
	for _, r := range Rows {
		t.Run(r.Name, func(t *testing.T) {
			if got, ok := Lookup(r.Name); !ok || got.Name != r.Name {
				t.Fatalf("Lookup(%q) = %q, %v", r.Name, got.Name, ok)
			}
			if k, err := r.New('S', 2, kernel.Env{}); err != nil || k == nil {
				t.Fatalf("New('S', 2) = %v, %v", k, err)
			}
			if n, err := r.Footprint('S', 2); err != nil || n == 0 {
				t.Fatalf("Footprint('S', 2) = %d, %v", n, err)
			}
			if k, err := r.New('Q', 1, kernel.Env{}); err == nil || k != nil {
				t.Fatalf("New accepted class Q: %v, %v", k, err)
			}
			if k, err := r.New('S', 0, kernel.Env{}); err == nil || k != nil {
				t.Fatalf("New accepted 0 threads: %v, %v", k, err)
			}
			if _, err := r.Footprint('Q', 1); err == nil {
				t.Fatal("Footprint accepted class Q")
			}
		})
	}
	if _, ok := Lookup("QQ"); ok {
		t.Fatal("Lookup found benchmark QQ")
	}
}

// TestPaper holds every Paper entry to the Row contract at class A, the
// one class every entry takes, and to a zero-allocation Iter: Table 1's
// operations at two threads, the serial-only entries (Table 0's nested
// forms, Table 7's LU) at one. New gives a kernel whose footprint
// estimate covers 95-105 % of what New allocated; a foreign class,
// threads < 1, and threads > 1 for a serial-only entry each give an
// error and a nil Kernel; and none is among the eight Rows.
func TestPaper(t *testing.T) {
	parallel := map[string]bool{"ASSIGN": true, "STENCIL1": true, "STENCIL2": true, "MATVEC": true, "REDSUM": true}
	for _, r := range Paper {
		t.Run(r.Name, func(t *testing.T) {
			if got, ok := Lookup(r.Name); !ok || got.Name != r.Name {
				t.Fatalf("Lookup(%q) = %q, %v", r.Name, got.Name, ok)
			}
			for _, row := range Rows {
				if row.Name == r.Name {
					t.Fatalf("%s is among the Rows", r.Name)
				}
			}
			threads := 1
			if parallel[r.Name] {
				threads = 2
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			k, err := r.New('A', threads, kernel.Env{})
			runtime.ReadMemStats(&after)
			if err != nil || k == nil {
				t.Fatalf("New('A', %d) = %v, %v", threads, k, err)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			est, err := r.Footprint('A', threads)
			if ratio := float64(est) / float64(alloc); err != nil || ratio < 0.95 || ratio > 1.05 {
				t.Errorf("Footprint('A', %d) = %d, %v; New allocated %d (ratio %.3f)", threads, est, err, alloc, ratio)
			}
			tm := team.New(threads)
			defer tm.Close()
			if n := testing.AllocsPerRun(2, func() { k.Iter(tm) }); n != 0 {
				t.Errorf("Iter at %d threads: %.1f allocs, want 0", threads, n)
			}
			bad := []struct {
				class   byte
				threads int
			}{{'S', 1}, {'A', 0}}
			if !parallel[r.Name] {
				bad = append(bad, struct {
					class   byte
					threads int
				}{'A', 2})
			}
			for _, c := range bad {
				if k, err := r.New(c.class, c.threads, kernel.Env{}); err == nil || k != nil {
					t.Errorf("New(%q, %d) = %v, %v; want an error and a nil Kernel", c.class, c.threads, k, err)
				}
				if _, err := r.Footprint(c.class, c.threads); err == nil {
					t.Errorf("Footprint(%q, %d) accepted", c.class, c.threads)
				}
			}
		})
	}
}
