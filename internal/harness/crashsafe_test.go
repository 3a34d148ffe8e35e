package harness

// Crash-safety tests: the journal kill/resume drill, the subprocess
// watchdog, the memory admission guard, and the context-interruptible
// retry backoff. The kill test is the package's centerpiece: it
// SIGKILLs a real journaled sweep mid-cell (run in a helper process)
// and proves that -resume completes exactly the planned cell set with
// no cell executed twice.

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"npbgo"
	"npbgo/internal/fault"
	"npbgo/internal/journal"
	"npbgo/internal/report"
)

// TestHelperJournaledSweep is not a test: re-invoked by
// TestKillResumeJournal as a separate process, it runs a journaled,
// isolated sweep slowed by an injected per-cell delay so the parent
// can SIGKILL it mid-flight.
func TestHelperJournaledSweep(t *testing.T) {
	if os.Getenv("NPB_HARNESS_HELPER") != "journaled-sweep" {
		t.Skip("helper process entry point")
	}
	path := os.Getenv("NPB_HARNESS_JOURNAL")
	fault.Activate(fault.Rule{Site: "harness.cell", Kind: fault.KindDelay,
		Count: -1, Sleep: 500 * time.Millisecond})
	threads := []int{1, 2}
	w, err := journal.Create(path, journal.Plan{
		Class: "S", Threads: threads, Benchmarks: []string{"CG"},
		Planned: PlannedCells([]npbgo.Benchmark{npbgo.CG}, 'S', threads),
	})
	if err != nil {
		t.Fatalf("helper: %v", err)
	}
	RunSweepOpts(npbgo.CG, 'S', threads, Options{
		Journal: w,
		Isolate: &Isolation{Cmd: []string{os.Args[0], "-test.run=^TestHelperRunCell$"}},
	})
	w.Close()
	os.Exit(0)
}

// TestHelperRunCell is not a test: it is the child side of the
// isolation protocol, standing in for `npbsuite -run-cell`.
func TestHelperRunCell(t *testing.T) {
	if os.Getenv("NPB_HARNESS_RUNCELL") != "1" {
		t.Skip("helper process entry point")
	}
	os.Exit(RunCellMain(flag.Arg(0), os.Stdout))
}

// TestKillResumeJournal is the crash drill of ISSUE acceptance: SIGKILL
// an in-flight isolated journaled sweep, resume from its journal, and
// require (a) the completed-cell set to equal the uninterrupted plan,
// (b) no cell to have executed twice, and (c) cells finished before the
// kill to have been replayed, not re-run.
func TestKillResumeJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("process kill drill in -short mode")
	}
	jp := filepath.Join(t.TempDir(), "sweep.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperJournaledSweep$")
	cmd.Env = append(os.Environ(),
		"NPB_HARNESS_HELPER=journaled-sweep",
		"NPB_HARNESS_RUNCELL=1",
		"NPB_HARNESS_JOURNAL="+jp)
	if err := cmd.Start(); err != nil {
		t.Fatalf("start helper: %v", err)
	}
	// Let at least one cell finish, then pull the plug mid-sweep.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if lg, err := journal.Read(jp); err == nil && len(lg.State().Done) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("helper produced no finished cell within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Process.Kill() // SIGKILL: no deferred cleanup, no journal close
	cmd.Wait()

	w, lg, err := journal.AppendTo(jp, "resume-test")
	if err != nil {
		t.Fatalf("journal did not survive SIGKILL: %v", err)
	}
	st := lg.State()
	preDone := make(map[journal.CellKey]bool)
	for k := range st.Done {
		preDone[k] = true
	}
	plan := lg.Plan()
	if len(preDone) == len(plan.Planned) {
		t.Logf("note: helper finished all %d cells before the kill; resume is a pure replay", len(preDone))
	}
	if _, err := RunSweepOpts(npbgo.CG, 'S', plan.Threads, Options{
		Journal: w, Resume: st.Done,
	}); err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	w.Close()

	final, err := journal.Read(jp)
	if err != nil {
		t.Fatalf("final journal unreadable: %v", err)
	}
	if final.Truncated {
		t.Error("final journal still torn after AppendTo recovery")
	}
	fst := final.State()
	if len(fst.Done) != len(plan.Planned) {
		t.Fatalf("completed %d cells, plan has %d", len(fst.Done), len(plan.Planned))
	}
	for _, k := range plan.Planned {
		if _, ok := fst.Done[k]; !ok {
			t.Errorf("planned cell %s never completed", k)
		}
	}
	starts := make(map[journal.CellKey]int)
	finishes := make(map[journal.CellKey]int)
	for _, e := range final.Entries {
		switch e.Kind {
		case journal.KindStart:
			starts[*e.Cell]++
		case journal.KindFinish:
			finishes[*e.Cell]++
		}
	}
	for k, n := range finishes {
		if n != 1 {
			t.Errorf("cell %s finished %d times, want exactly 1", k, n)
		}
	}
	for k := range preDone {
		if starts[k] != 1 {
			t.Errorf("pre-kill cell %s has %d starts: it was re-executed on resume", k, starts[k])
		}
	}
}

// isolationForTest returns an Isolation whose child is this test binary
// in run-cell mode.
func isolationForTest(t *testing.T) *Isolation {
	t.Setenv("NPB_HARNESS_RUNCELL", "1")
	return &Isolation{Cmd: []string{os.Args[0], "-test.run=^TestHelperRunCell$"}}
}

func TestIsolatedCellHappyPath(t *testing.T) {
	res, _, err := runIsolated(context.Background(),
		npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 1},
		0, isolationForTest(t), "", "")
	if err != nil {
		t.Fatalf("isolated cell failed: %v", err)
	}
	if !res.Verified || res.Elapsed <= 0 || res.Mops <= 0 {
		t.Fatalf("implausible isolated result: %+v", res)
	}
}

// TestIsolatedTimeoutKilled: a child stuck in an injected 30s delay
// must be hard-killed at the deadline and surface as a structured
// KilledError — the failure mode an in-process timeout cannot stop.
func TestIsolatedTimeoutKilled(t *testing.T) {
	iso := isolationForTest(t)
	iso.FaultRules = []fault.Rule{{Site: "cg.iter", Kind: fault.KindDelay,
		Count: -1, Sleep: 30 * time.Second}}
	start := time.Now()
	_, _, err := runIsolated(context.Background(),
		npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 1},
		300*time.Millisecond, iso, "", "")
	var ke *KilledError
	if !asKilled(err, &ke) || ke.Reason != "timeout-killed" {
		t.Fatalf("err = %v, want KilledError(timeout-killed)", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("kill took %v: watchdog did not cut the 30s delay short", took)
	}
	if failReason(err) != "timeout-killed" {
		t.Fatalf("failReason = %q", failReason(err))
	}
}

// TestIsolatedOOMKilled: with an RSS limit any real child must breach,
// the watchdog kills it and reports oom-killed — the paper's FT
// memory-limit deaths (§5) degraded to one structured FAIL cell.
func TestIsolatedOOMKilled(t *testing.T) {
	iso := isolationForTest(t)
	iso.MemLimitBytes = 1
	iso.Poll = 2 * time.Millisecond
	// Keep the child alive long enough for the first RSS sample.
	iso.FaultRules = []fault.Rule{{Site: "cg.iter", Kind: fault.KindDelay,
		Count: -1, Sleep: 30 * time.Second}}
	_, _, err := runIsolated(context.Background(),
		npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 1}, 0, iso, "", "")
	var ke *KilledError
	if !asKilled(err, &ke) || ke.Reason != "oom-killed" {
		t.Fatalf("err = %v, want KilledError(oom-killed)", err)
	}
	if failReason(err) != "oom-killed" {
		t.Fatalf("failReason = %q", failReason(err))
	}
}

// TestIsolatedCancelKillsChild: cancelling the sweep context must kill
// the child rather than leave it running unsupervised.
func TestIsolatedCancelKillsChild(t *testing.T) {
	iso := isolationForTest(t)
	iso.FaultRules = []fault.Rule{{Site: "cg.iter", Kind: fault.KindDelay,
		Count: -1, Sleep: 30 * time.Second}}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := runIsolated(ctx,
		npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 1}, 0, iso, "", "")
	var ke *KilledError
	if !asKilled(err, &ke) || ke.Reason != "cancelled" {
		t.Fatalf("err = %v, want KilledError(cancelled)", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("cancel kill took %v", took)
	}
}

// TestIsolatedErrorRoundTrip: a structured failure inside the child (an
// injected verification corruption) must come back across the process
// boundary as a RunError of the same kind, not as a flat exit failure.
func TestIsolatedErrorRoundTrip(t *testing.T) {
	iso := isolationForTest(t)
	iso.FaultRules = []fault.Rule{{Site: "cg.verify", Kind: fault.KindCorrupt, Count: -1}}
	_, _, err := runIsolated(context.Background(),
		npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 1}, 0, iso, "", "")
	var re *npbgo.RunError
	if !asRunError(err, &re) || re.Kind != npbgo.ErrVerification {
		t.Fatalf("err = %v, want RunError(verification)", err)
	}
	if failReason(err) != "verification" {
		t.Fatalf("failReason = %q", failReason(err))
	}
}

func TestRunCellMainBadSpec(t *testing.T) {
	var out bytes.Buffer
	if code := RunCellMain("{not json", &out); code != 2 {
		t.Fatalf("exit code = %d, want 2 for a broken spec", code)
	}
}

// TestRetryBackoffInterruptedByCancel is the regression test for the
// satellite fix: the retry backoff used to be a bare time.Sleep, so
// cancelling a sweep mid-backoff still waited out the full delay. With
// a 30s backoff and a cancel after 100ms, the sweep must return almost
// immediately.
func TestRetryBackoffInterruptedByCancel(t *testing.T) {
	fault.Activate(fault.Rule{Site: "harness.cell", Kind: fault.KindPanic, Count: -1})
	defer fault.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunSweepOpts(npbgo.EP, 'S', nil, Options{
		Retries: 3,
		Backoff: 30 * time.Second,
		Context: ctx,
	})
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("sweep took %v: backoff was not interrupted by cancellation", took)
	}
	if err == nil {
		t.Fatal("sweep succeeded despite unlimited injected panics")
	}
}

// TestMemGuardSkipsAndJournals: an unfittable cell becomes
// SKIP(memory: ...) — not a failure, not an execution — and its journal
// entry is StatusSkip, which resume treats as still pending.
func TestMemGuardSkipsAndJournals(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "j.jsonl")
	threads := []int{1}
	w, err := journal.Create(jp, journal.Plan{
		Class: "S", Threads: threads, Benchmarks: []string{"CG"},
		Planned: PlannedCells([]npbgo.Benchmark{npbgo.CG}, 'S', threads),
	})
	if err != nil {
		t.Fatal(err)
	}
	guard := &MemGuard{Available: func() (uint64, bool) { return 1024, true }}
	sw, err := RunSweepOpts(npbgo.CG, 'S', threads, Options{Journal: w, MemGuard: guard})
	w.Close()
	if err != nil {
		t.Fatalf("skips must not fail the sweep: %v", err)
	}
	for _, r := range sw.Runs {
		if !IsSkip(r.Err) {
			t.Fatalf("cell t%d not skipped: %+v", r.Threads, r)
		}
		if txt := cellText(r); !strings.HasPrefix(txt, "SKIP(memory:") {
			t.Fatalf("cell renders %q, want SKIP(memory: ...)", txt)
		}
		if r.Attempts != 0 {
			t.Fatalf("skipped cell consumed %d attempts", r.Attempts)
		}
	}
	lg, err := journal.Read(jp)
	if err != nil {
		t.Fatal(err)
	}
	st := lg.State()
	if len(st.Done) != 0 || len(st.Skipped) != 2 {
		t.Fatalf("journal state done=%d skipped=%d, want 0/2", len(st.Done), len(st.Skipped))
	}
	if got := len(st.Pending()); got != 2 {
		t.Fatalf("skipped cells must stay pending for resume, got %d pending", got)
	}
}

// TestMemGuardFailsOpen: an unreadable probe or unknown footprint must
// admit the cell — a guess never blocks a runnable run.
func TestMemGuardFailsOpen(t *testing.T) {
	noProbe := &MemGuard{Available: func() (uint64, bool) { return 0, false }}
	if err := noProbe.check(npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 1}); err != nil {
		t.Fatalf("failed probe must admit: %v", err)
	}
	tiny := &MemGuard{Available: func() (uint64, bool) { return 1, true }}
	if err := tiny.check(npbgo.Config{Benchmark: "NOPE", Class: 'S', Threads: 1}); err != nil {
		t.Fatalf("unknown footprint must admit: %v", err)
	}
	if err := tiny.check(npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 1}); !IsSkip(err) {
		t.Fatalf("1-byte budget admitted CG.S: %v", err)
	}
}

// TestResumeReplaysWithoutExecuting: cells present in Options.Resume
// come back from their journaled metrics; an always-panic fault rule
// proves no benchmark actually ran.
func TestResumeReplaysWithoutExecuting(t *testing.T) {
	fault.Activate(fault.Rule{Site: "harness.cell", Kind: fault.KindPanic, Count: -1})
	defer fault.Reset()
	key := func(th int) journal.CellKey {
		return journal.CellKey{Benchmark: "CG", Class: "S", Threads: th}
	}
	resume := map[journal.CellKey]*report.CellMetrics{
		key(0): {Benchmark: "CG", Class: "S", Threads: 0, Elapsed: 1.5, Mops: 10, Verified: true, Attempts: 1},
		key(1): {Benchmark: "CG", Class: "S", Threads: 1, Elapsed: 0.75, Mops: 20, Verified: true, Attempts: 2,
			Samples: []float64{0.8, 0.75}},
	}
	sw, err := RunSweepOpts(npbgo.CG, 'S', []int{1}, Options{Resume: resume})
	if err != nil {
		t.Fatalf("replayed sweep failed (a cell must have executed): %v", err)
	}
	if len(sw.Runs) != 2 {
		t.Fatalf("got %d runs", len(sw.Runs))
	}
	for _, r := range sw.Runs {
		if !r.Replayed {
			t.Fatalf("cell t%d not marked replayed", r.Threads)
		}
	}
	if sw.Runs[0].Elapsed != 1500*time.Millisecond {
		t.Fatalf("replayed serial elapsed = %v", sw.Runs[0].Elapsed)
	}
	if got := len(sw.Runs[1].Samples); got != 2 {
		t.Fatalf("replayed samples = %d, want 2", got)
	}
	if sp := sw.Speedup(1); sp < 1.99 || sp > 2.01 {
		t.Fatalf("speedup over replayed cells = %v, want 2.0", sp)
	}
}

func TestParseFormatBytes(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"0", 0}, {"512", 512}, {"1KiB", 1024}, {"2kb", 2048},
		{"1.5MiB", 3 << 19}, {"2GiB", 2 << 30}, {"2GB", 2 << 30}, {"1TiB", 1 << 40},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "x", "-1", "GiB"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) did not fail", bad)
		}
	}
	if s := FormatBytes(2 << 30); s != "2.0GiB" {
		t.Errorf("FormatBytes(2GiB) = %q", s)
	}
	if s := FormatBytes(512); s != "512B" {
		t.Errorf("FormatBytes(512) = %q", s)
	}
}

func asKilled(err error, target **KilledError) bool      { return errors.As(err, target) }
func asRunError(err error, target **npbgo.RunError) bool { return errors.As(err, target) }
