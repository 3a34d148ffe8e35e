package npbgo_test

import (
	"strings"
	"testing"

	"npbgo"
)

func TestEveryBenchmarkClassSVerifies(t *testing.T) {
	for _, b := range npbgo.Benchmarks() {
		b := b
		t.Run(string(b), func(t *testing.T) {
			res, err := npbgo.Run(npbgo.Config{Benchmark: b, Class: 'S', Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed {
				t.Fatalf("verification failed:\n%s", res.Detail)
			}
			if !res.Verified {
				t.Fatalf("expected official verification for %s.S, got tier %s", b, res.Tier)
			}
			if res.Tier != "official" {
				t.Fatalf("tier = %s, want official", res.Tier)
			}
			if res.Elapsed <= 0 || res.Mops <= 0 {
				t.Fatalf("degenerate timing: %v, %v Mop/s", res.Elapsed, res.Mops)
			}
		})
	}
}

func TestDefaultsApplied(t *testing.T) {
	res, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.EP})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != 'S' || res.Threads != 1 {
		t.Fatalf("defaults not applied: class %c threads %d", res.Class, res.Threads)
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	if _, err := npbgo.Run(npbgo.Config{Benchmark: "QQ"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestBadClassPropagates(t *testing.T) {
	if _, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.CG, Class: 'Q'}); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestResultString(t *testing.T) {
	res, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.MG, Class: 'S'})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "MG.S") || !strings.Contains(s, "VERIFIED") {
		t.Fatalf("String() = %q", s)
	}
}

func TestWarmupOption(t *testing.T) {
	res, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 2, Warmup: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("warmup run unverified:\n%s", res.Detail)
	}
}

// TestScheduleOptionEquivalence: every loop schedule must produce the
// exact same verification printout as the static default — the computed
// values are printed at full float64 precision, so an identical Detail
// string is a bit-identity check on the benchmark's numerical results.
// CG exercises the block-indexed reduction path, MG the per-block norm
// maxima.
func TestScheduleOptionEquivalence(t *testing.T) {
	for _, b := range []npbgo.Benchmark{npbgo.CG, npbgo.MG} {
		base, err := npbgo.Run(npbgo.Config{Benchmark: b, Class: 'S', Threads: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !base.Verified {
			t.Fatalf("static %s.S unverified:\n%s", b, base.Detail)
		}
		for _, sched := range []string{"dynamic", "guided", "stealing", "auto"} {
			res, err := npbgo.Run(npbgo.Config{Benchmark: b, Class: 'S', Threads: 3, Schedule: sched})
			if err != nil {
				t.Fatalf("%s schedule %s: %v", b, sched, err)
			}
			if !res.Verified {
				t.Fatalf("%s under %s unverified:\n%s", b, sched, res.Detail)
			}
			if res.Detail != base.Detail {
				t.Fatalf("%s under %s diverged from static:\n%s\nvs static:\n%s",
					b, sched, res.Detail, base.Detail)
			}
		}
	}
}

// TestBadScheduleRejected: an unknown schedule name must fail up front
// as a config error, before any benchmark state is built.
func TestBadScheduleRejected(t *testing.T) {
	_, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Schedule: "round-robin"})
	if err == nil {
		t.Fatal("unknown schedule accepted")
	}
	if !strings.Contains(err.Error(), "schedule") {
		t.Fatalf("error %q does not mention the schedule", err)
	}
}

func TestTeamExported(t *testing.T) {
	tm := npbgo.NewTeam(3)
	defer tm.Close()
	tm.Run(func(id int) {
		for it := tm.ReduceBlocks(id, 0, 100); it.Next(); {
			s := 0.0
			for i := it.Lo; i < it.Hi; i++ {
				s += float64(i)
			}
			*tm.Partial(it.Chunk()) = s
		}
	})
	if sum := tm.PartialSum(); sum != 4950 {
		t.Fatalf("PartialSum = %v", sum)
	}
	lo, hi := npbgo.BlockRange(0, 10, 3, 0)
	if lo != 0 || hi != 4 {
		t.Fatalf("BlockRange = %d,%d", lo, hi)
	}
}
