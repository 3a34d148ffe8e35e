package harness

import (
	"errors"
	"strings"
	"testing"
	"time"

	"npbgo"
	"npbgo/internal/fault"
	"npbgo/internal/perfstat"
)

// TestTimeoutMarksCellFailedAndSweepContinues slows CG's outer loop with
// an injected delay so a short per-cell timeout fires, and checks the
// cell degrades to FAIL(timeout) while the sweep still returns.
func TestTimeoutMarksCellFailedAndSweepContinues(t *testing.T) {
	fault.Activate(fault.Rule{
		Site: "cg.iter", Kind: fault.KindDelay, Count: -1, Sleep: 60 * time.Millisecond,
	})
	defer fault.Reset()
	start := time.Now()
	rec, err := memSweep(npbgo.CG, []int{2}, Options{
		Timeout: 100 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("timed-out sweep reported success")
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Fatalf("timeout did not bound the sweep: took %v", took)
	}
	if len(rec.Cells) != 2 {
		t.Fatalf("sweep did not continue past the failed cell: %d lines", len(rec.Cells))
	}
	for _, m := range rec.Cells {
		if m.Error == "" || m.Fail != "timeout" {
			t.Fatalf("cell %+v should have timed out", m)
		}
	}
	out := SuiteTable("T", rec)
	if !strings.Contains(out, "FAIL(timeout)") {
		t.Fatalf("failed cell not rendered as FAIL(timeout):\n%s", out)
	}
}

// TestInjectedWorkerPanicDegradesCell routes a worker panic (inside a
// team region of a real benchmark) through the whole stack: team
// recovery, npbgo.RunError conversion, harness degradation.
func TestInjectedWorkerPanicDegradesCell(t *testing.T) {
	fault.Activate(fault.Rule{Site: "ep.batch", Kind: fault.KindPanic, Count: -1})
	defer fault.Reset()
	rec, err := memSweep(npbgo.EP, []int{2}, Options{})
	if err == nil {
		t.Fatal("worker panic not reported")
	}
	out := SuiteTable("T", rec)
	if !strings.Contains(out, "FAIL(panic)") {
		t.Fatalf("panicked cell not rendered as FAIL(panic):\n%s", out)
	}
}

// TestFailedSerialDisablesSpeedup: a sweep whose serial cell failed has
// no baseline, so the scaling view npbsuite prints gives its other
// cells no speedup or efficiency ("-"), not one over some other cell.
func TestFailedSerialDisablesSpeedup(t *testing.T) {
	fault.Activate(fault.Rule{Site: "harness.cell", Kind: fault.KindPanic})
	defer fault.Reset()
	rec, err := memSweep(npbgo.IS, []int{1, 2}, Options{})
	if err == nil || !strings.Contains(err.Error(), "IS.S serial") {
		t.Fatalf("sweep error = %v, want the serial cell's panic", err)
	}
	groups := perfstat.Scaling(rec.BenchRecord)
	if len(groups) != 1 || groups[0].BaseSec != 0 || len(groups[0].Points) != 2 {
		t.Fatalf("scaling of a sweep without a serial cell: %+v", groups)
	}
	for _, p := range groups[0].Points {
		if p.Speedup != 0 || p.Efficiency != 0 {
			t.Fatalf("t%d: speedup %v over a failed baseline", p.Threads, p.Speedup)
		}
	}
	for _, line := range strings.Split(perfstat.ScalingTable(groups), "\n") {
		if f := strings.Fields(line); len(f) > 4 && f[0] == "IS.S" && (f[3] != "-" || f[4] != "-") {
			t.Fatalf("scaling row %q prints a speedup over a failed baseline", line)
		}
	}
}

// TestHarnessPanicRendersAsPanic: a panic in the harness's own part of
// a cell (the harness.cell fault site), not in the benchmark, is a
// RunError of kind panic like a worker's, rendered FAIL(panic).
func TestHarnessPanicRendersAsPanic(t *testing.T) {
	fault.Activate(fault.Rule{Site: "harness.cell", Kind: fault.KindPanic, Count: -1})
	defer fault.Reset()
	rec, err := memSweep(npbgo.CG, []int{2}, Options{})
	var re *npbgo.RunError
	if !errors.As(err, &re) || re.Kind != npbgo.ErrPanic || re.Benchmark != npbgo.CG {
		t.Fatalf("error %v, want a CG RunError of kind panic", err)
	}
	out := SuiteTable("T", rec)
	if strings.Count(out, "FAIL(panic)") < 2 {
		t.Fatalf("harness panics not rendered as FAIL(panic):\n%s", out)
	}
}
