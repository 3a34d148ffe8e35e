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

// regionsPerIter pins how many team regions one Iter runs at two
// threads: one per timed phase (each env.Start/Stop bracket), with
// barriers between a phase's loops rather than one fork and join per
// loop. FT's checksum runs on the master, outside any region.
var regionsPerIter = map[string]uint64{"BT": 5, "SP": 5, "LU": 4, "FT": 2, "IS": 1, "CG": 2, "MG": 2, "EP": 1}

// TestRegionsPerIter counts, with a probe, the regions two Iters of
// every row run at class S on two threads, against regionsPerIter: the
// fork-join count's regression gate.
func TestRegionsPerIter(t *testing.T) {
	for _, r := range Rows {
		t.Run(r.Name, func(t *testing.T) {
			want, ok := regionsPerIter[r.Name]
			if !ok {
				t.Fatalf("no pinned region count for %s", r.Name)
			}
			k, err := r.New('S', 2, kernel.Env{})
			if err != nil {
				t.Fatal(err)
			}
			p := team.NewProbe(2, nil)
			tm := team.New(2, team.WithProbe(p))
			defer tm.Close()
			k.Iter(tm)
			k.Iter(tm)
			got := p.Snapshot().Regions
			t.Logf("%d regions over two Iters", got)
			if got != 2*want {
				t.Errorf("two Iters ran %d regions, want %d (%d per Iter)", got, 2*want, want)
			}
		})
	}
}

// mallocs calls f once to warm it, then returns the heap allocations of
// runs more calls, counted as testing.AllocsPerRun counts them (with
// GOMAXPROCS pinned to 1) but as a total: AllocsPerRun's integer mean
// reads up to runs-1 mallocs as 0. The count is process-wide, so it
// also takes in the runtime's own: after the class-A entries free their
// grids, the background scavenger re-arms its timer on a P whose timer
// heap the GOMAXPROCS change emptied, a 16-byte malloc
// (runtime.(*timers).addHeap), and now and then a parked worker takes a
// fresh 96-byte sudog. Those come once, not every window.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestPaper holds every Paper entry to the Row contract at class A, the
// one class every entry takes, and to a zero-allocation Iter, counted
// exactly and confirmed by a second window: Table 1's
// operations at two threads, the serial-only entries (Table 0's nested
// forms, Table 7's LU) at one; a race build does not count the
// two-thread Iters, whose parks the race runtime allocates for
// (parkAllocates). New gives a kernel whose footprint
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
			n := mallocs(2, func() { k.Iter(tm) })
			if n != 0 {
				// Confirm before failing, as allocgate does: absorb
				// one-off process noise.
				n = mallocs(2, func() { k.Iter(tm) })
			}
			if n != 0 && !(parkAllocates && threads > 1) {
				t.Errorf("Iter at %d threads: %d mallocs over 2 runs, want 0", threads, n)
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
