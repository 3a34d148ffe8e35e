package npbgo_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"npbgo"
	"npbgo/internal/ep"
	"npbgo/internal/kernel"
	"npbgo/internal/perfcount"
	"npbgo/internal/team"
	"npbgo/internal/timer"
	"npbgo/internal/trace"
)

// TestVerificationPrintoutsMatchRecorded pins the five kernels that
// draw their input from internal/randdp — EP, IS, CG, MG, FT — to the
// verification printouts recorded in testdata/bitidentity.golden before
// the generator moved to integer arithmetic. The printouts carry every
// computed value at full float64 precision (%24.17e round-trips), so an
// equal string is bit-identity of EP's sx/sy and annulus counts, CG's
// zeta, MG's residual norm, FT's six checksums and IS's order check —
// a stronger statement than the within-epsilon verification itself.
// Reduction order depends on the team size, never on the schedule, so
// each (benchmark, class, threads) has one recorded printout that both
// static and dynamic must reproduce. To re-record after an intended
// numerical change, paste the "== key" blocks a failure prints.
func TestVerificationPrintoutsMatchRecorded(t *testing.T) {
	golden := loadGolden(t, "testdata/bitidentity.golden")
	classes := []byte{'S'}
	if !testing.Short() {
		classes = append(classes, 'W')
	}
	for _, b := range []npbgo.Benchmark{npbgo.EP, npbgo.IS, npbgo.CG, npbgo.MG, npbgo.FT} {
		for _, class := range classes {
			for _, threads := range []int{1, 2, 3} {
				key := fmt.Sprintf("%s.%c.t%d", b, class, threads)
				for _, sched := range []string{"static", "dynamic"} {
					got := printout(t, b, class, threads, sched, false)
					if got != golden[key] {
						t.Errorf("%s under %s differs from the recorded printout; got:\n== %s\n%srecorded:\n%s",
							key, sched, key, got, golden[key])
					}
				}
			}
		}
	}
}

// TestInstrumentsDoNotChangeABit: with every instrument on — obs,
// trace, counters (or their unavailable path) and the phase profile —
// the five kernels reproduce the recorded printouts, and BT, SP and LU,
// which have no recorded printout, print the same Detail as they do
// uninstrumented. The probe only reads clocks and counts; a hook that
// touched a reduction's slots or order would show here.
func TestInstrumentsDoNotChangeABit(t *testing.T) {
	golden := loadGolden(t, "testdata/bitidentity.golden")
	for _, b := range npbgo.Benchmarks() {
		for _, threads := range []int{2, 3} {
			key := fmt.Sprintf("%s.S.t%d", b, threads)
			for _, sched := range []string{"static", "dynamic"} {
				want, ok := golden[key]
				if !ok {
					want = printout(t, b, 'S', threads, sched, false)
				}
				if got := printout(t, b, 'S', threads, sched, true); got != want {
					t.Errorf("%s under %s with every instrument on differs; got:\n%swant:\n%s", key, sched, got, want)
				}
			}
		}
	}
}

// printout runs one cell, with every instrument on when instrumented,
// and returns its verification printout. EP goes through internal/ep
// because the annulus counts are not part of the root Result.
func printout(t *testing.T, b npbgo.Benchmark, class byte, threads int, sched string, instrumented bool) string {
	t.Helper()
	if b == npbgo.EP {
		s, err := team.ParseSchedule(sched)
		if err != nil {
			t.Fatal(err)
		}
		env := kernel.Env{Schedule: s}
		if instrumented {
			// Counters stay off where they are unavailable, as in
			// npbgo.RunContext.
			pc, err := perfcount.New(threads)
			if err == nil {
				pc.Bind(0)
				defer func() { pc.Unbind(0); pc.Close() }()
			}
			env.Timers = timer.NewConcurrentSet()
			env.Probe = team.NewProbe(threads, trace.New(threads), pc)
		}
		e, err := ep.New(class, threads, env)
		if err != nil {
			t.Fatal(err)
		}
		res := e.RunResult()
		out := res.Verify.String()
		for l, q := range res.Q {
			out += fmt.Sprintf("  q[%d] %.0f\n", l, q)
		}
		return out
	}
	res, err := npbgo.Run(npbgo.Config{Benchmark: b, Class: class, Threads: threads, Schedule: sched,
		Obs: instrumented, Trace: instrumented, Counters: instrumented, Profile: instrumented})
	if err != nil {
		t.Fatalf("%s.%c threads=%d %s: %v", b, class, threads, sched, err)
	}
	return res.Detail
}

// loadGolden reads "== key" headed blocks into a map.
func loadGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	key := ""
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if k, ok := strings.CutPrefix(line, "== "); ok {
			key = strings.TrimSpace(k)
			continue
		}
		golden[key] += line
	}
	return golden
}
