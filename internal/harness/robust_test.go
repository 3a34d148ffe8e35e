package harness

import (
	"errors"
	"strings"
	"testing"
	"time"

	"npbgo"
	"npbgo/internal/fault"
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
	sw, err := RunSweepOpts(npbgo.CG, 'S', []int{2}, Options{
		Timeout: 100 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("timed-out sweep reported success")
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Fatalf("timeout did not bound the sweep: took %v", took)
	}
	if len(sw.Runs) != 2 {
		t.Fatalf("sweep did not continue past the failed cell: %d cells", len(sw.Runs))
	}
	for _, r := range sw.Runs {
		if r.Err == nil {
			t.Fatalf("cell %+v should have timed out", r)
		}
	}
	out := SuiteTable("T", []Sweep{sw}, []int{2})
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
	sw, err := RunSweepOpts(npbgo.EP, 'S', []int{2}, Options{})
	if err == nil {
		t.Fatal("worker panic not reported")
	}
	out := SuiteTable("T", []Sweep{sw}, []int{2})
	if !strings.Contains(out, "FAIL(panic)") {
		t.Fatalf("panicked cell not rendered as FAIL(panic):\n%s", out)
	}
}

// TestFailedSerialDisablesSpeedup: speedup against a failed baseline
// must come out as 0, not garbage.
func TestFailedSerialDisablesSpeedup(t *testing.T) {
	sw := Sweep{Benchmark: npbgo.CG, Class: 'S', Runs: []Run{
		{Threads: 0, Err: errTest},
		{Threads: 2, Elapsed: time.Second},
	}}
	if s := sw.Speedup(2); s != 0 {
		t.Fatalf("Speedup over failed baseline = %v", s)
	}
}

var errTest = &npbgo.RunError{Benchmark: npbgo.CG, Class: 'S', Threads: 1,
	Kind: npbgo.ErrPanic, Cause: nil}

// TestHarnessPanicRendersAsPanic: a panic in the harness's own part of
// a cell (the harness.cell fault site), not in the benchmark, is a
// RunError of kind panic like a worker's, rendered FAIL(panic).
func TestHarnessPanicRendersAsPanic(t *testing.T) {
	fault.Activate(fault.Rule{Site: "harness.cell", Kind: fault.KindPanic, Count: -1})
	defer fault.Reset()
	sw, err := RunSweepOpts(npbgo.CG, 'S', []int{2}, Options{})
	var re *npbgo.RunError
	if !errors.As(err, &re) || re.Kind != npbgo.ErrPanic || re.Benchmark != npbgo.CG {
		t.Fatalf("error %v, want a CG RunError of kind panic", err)
	}
	out := SuiteTable("T", []Sweep{sw}, []int{2})
	if strings.Count(out, "FAIL(panic)") < 2 {
		t.Fatalf("harness panics not rendered as FAIL(panic):\n%s", out)
	}
}
