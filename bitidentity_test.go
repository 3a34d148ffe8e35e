package npbgo_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"npbgo"
	"npbgo/internal/ep"
	"npbgo/internal/kernel"
	"npbgo/internal/team"
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
					got := printout(t, b, class, threads, sched)
					if got != golden[key] {
						t.Errorf("%s under %s differs from the recorded printout; got:\n== %s\n%srecorded:\n%s",
							key, sched, key, got, golden[key])
					}
				}
			}
		}
	}
}

// printout runs one cell and returns its verification printout. EP goes
// through internal/ep because the annulus counts are not part of the
// root Result.
func printout(t *testing.T, b npbgo.Benchmark, class byte, threads int, sched string) string {
	t.Helper()
	if b == npbgo.EP {
		s, err := team.ParseSchedule(sched)
		if err != nil {
			t.Fatal(err)
		}
		e, err := ep.New(class, threads, kernel.Env{Schedule: s})
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
	res, err := npbgo.Run(npbgo.Config{Benchmark: b, Class: class, Threads: threads, Schedule: sched})
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
