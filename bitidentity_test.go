package npbgo_test

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"npbgo"
	"npbgo/internal/ep"
	"npbgo/internal/kernel"
	"npbgo/internal/team"
	"npbgo/internal/timer"
	"npbgo/internal/trace"
)

// teamInvariant names the codes whose printout does not depend on the
// team size: BT, SP and LU reduce only in serial, master-side code
// (their TestParallelMatchesSerialBitwise), so one printout per (code,
// class) covers every team size and schedule.
var teamInvariant = map[npbgo.Benchmark]bool{npbgo.BT: true, npbgo.SP: true, npbgo.LU: true}

// goldenKey names a cell's recorded printout: "BT.S" for a
// team-invariant code, "CG.S.t2" for the others, whose reduction order
// depends on the team size (never on the schedule).
func goldenKey(b npbgo.Benchmark, class byte, threads int) string {
	if teamInvariant[b] {
		return fmt.Sprintf("%s.%c", b, class)
	}
	return fmt.Sprintf("%s.%c.t%d", b, class, threads)
}

// TestVerificationPrintoutsMatchRecorded pins all eight codes to the
// verification printouts recorded in testdata/bitidentity.golden. The
// printouts carry every computed value at full float64 precision
// (%24.17e round-trips), so an equal string is bit-identity of EP's
// sx/sy and annulus counts, CG's zeta, MG's residual norm, FT's six
// checksums, IS's order check and the BT/SP/LU residual and error norms
// (and LU's surface integral) — a stronger statement than the
// within-epsilon verification itself. Every code runs at S × threads
// {1, 2, 3} × {static, dynamic}; outside -short the five kernels add
// the same lattice at W, and BT, SP and LU one W cell each (two threads,
// dynamic: each W run takes seconds), and LU a second one at one thread,
// static, whose one band of 31 rows cuts other sweep waves than the two
// threads' bands do. To re-record after an intended numerical change,
// paste the "== key" blocks a failure prints.
func TestVerificationPrintoutsMatchRecorded(t *testing.T) {
	golden := loadGolden(t, "testdata/bitidentity.golden")
	check := func(b npbgo.Benchmark, class byte, threads int, sched string) {
		t.Helper()
		key := goldenKey(b, class, threads)
		if got := printout(t, b, class, threads, sched, false); got != golden[key] {
			t.Errorf("%s at %d threads under %s differs from the recorded printout; got:\n== %s\n%srecorded:\n%s",
				key, threads, sched, key, got, golden[key])
		}
	}
	for _, b := range npbgo.Benchmarks() {
		for _, threads := range []int{1, 2, 3} {
			for _, sched := range []string{"static", "dynamic"} {
				check(b, 'S', threads, sched)
				if !testing.Short() && !teamInvariant[b] {
					check(b, 'W', threads, sched)
				}
			}
		}
		if !testing.Short() && teamInvariant[b] {
			check(b, 'W', 2, "dynamic")
		}
		if !testing.Short() && b == npbgo.LU {
			check(b, 'W', 1, "static")
		}
	}
}

// TestInstrumentsDoNotChangeABit: with every instrument on — obs,
// trace and the phase profile — all eight codes reproduce the recorded
// printouts. The probe only reads clocks and counts; a hook that
// touched a reduction's slots or order would show here.
func TestInstrumentsDoNotChangeABit(t *testing.T) {
	golden := loadGolden(t, "testdata/bitidentity.golden")
	for _, b := range npbgo.Benchmarks() {
		for _, threads := range []int{2, 3} {
			key := goldenKey(b, 'S', threads)
			want, ok := golden[key]
			if !ok {
				t.Fatalf("no recorded printout %s", key)
			}
			for _, sched := range []string{"static", "dynamic"} {
				if got := printout(t, b, 'S', threads, sched, true); got != want {
					t.Errorf("%s at %d threads under %s with every instrument on differs; got:\n%swant:\n%s", key, threads, sched, got, want)
				}
			}
		}
	}
}

// cellDeadline bounds each non-EP cell of printout. The slowest cell,
// BT.W at two threads, takes seconds; a team that deadlocks, such as a
// worker skipping a barrier the others wait at, fails as its named cell
// instead of hanging the binary until go test's ten-minute timeout.
const cellDeadline = 60 * time.Second

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
			env.Timers = timer.NewConcurrentSet()
			tr := trace.New(context.Background(), "EP", threads)
			defer tr.Stop()
			env.Probe = team.NewProbe(threads, tr)
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
	ctx, cancel := context.WithTimeout(context.Background(), cellDeadline)
	defer cancel()
	res, err := npbgo.RunContext(ctx, npbgo.Config{Benchmark: b, Class: class, Threads: threads, Schedule: sched,
		Obs: instrumented, Trace: instrumented, Profile: instrumented})
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
