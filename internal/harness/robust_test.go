package harness

import (
	"strings"
	"testing"
	"time"

	"npbgo"
	"npbgo/internal/fault"
)

// TestRetryHealsInjectedTransientFailure injects a panic into the first
// cell attempt and checks that one retry heals it: the sweep succeeds,
// the cell is marked successful, and exactly one backoff sleep happened.
func TestRetryHealsInjectedTransientFailure(t *testing.T) {
	fault.Activate(fault.Rule{Site: "harness.cell", Kind: fault.KindPanic})
	defer fault.Reset()
	var sleeps []time.Duration
	sw, err := RunSweepOpts(npbgo.EP, 'S', []int{1}, Options{
		Retries: 2,
		Backoff: time.Millisecond,
		sleep:   func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	if err != nil {
		t.Fatalf("sweep not healed by retry: %v", err)
	}
	if len(sw.Runs) != 2 {
		t.Fatalf("got %d cells", len(sw.Runs))
	}
	base := sw.Runs[0]
	if base.Err != nil || !base.Verified {
		t.Fatalf("healed cell unhealthy: %+v", base)
	}
	if base.Attempts != 2 {
		t.Fatalf("baseline attempts = %d, want 2 (one failure + one retry)", base.Attempts)
	}
	if sw.Runs[1].Attempts != 1 {
		t.Fatalf("second cell attempts = %d, want 1", sw.Runs[1].Attempts)
	}
	if len(sleeps) != 1 || sleeps[0] != time.Millisecond {
		t.Fatalf("backoff sleeps = %v", sleeps)
	}
}

// TestBackoffDoublesUntilRetriesExhausted makes every attempt fail and
// checks the exponential backoff schedule and the final cell failure.
func TestBackoffDoublesUntilRetriesExhausted(t *testing.T) {
	fault.Activate(fault.Rule{Site: "harness.cell", Kind: fault.KindPanic, Count: -1})
	defer fault.Reset()
	var sleeps []time.Duration
	sw, err := RunSweepOpts(npbgo.EP, 'S', nil, Options{
		Retries: 2,
		Backoff: 3 * time.Millisecond,
		sleep:   func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	if err == nil {
		t.Fatal("persistently failing sweep reported success")
	}
	if len(sw.Runs) != 1 {
		t.Fatalf("got %d cells", len(sw.Runs))
	}
	r := sw.Runs[0]
	if r.Err == nil || r.Attempts != 3 {
		t.Fatalf("cell = %+v, want Err set and 3 attempts", r)
	}
	want := []time.Duration{3 * time.Millisecond, 6 * time.Millisecond}
	if len(sleeps) != len(want) || sleeps[0] != want[0] || sleeps[1] != want[1] {
		t.Fatalf("backoff schedule = %v, want %v", sleeps, want)
	}
}

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
		sleep:   func(time.Duration) {},
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
	sw, err := RunSweepOpts(npbgo.EP, 'S', []int{2}, Options{sleep: func(time.Duration) {}})
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
