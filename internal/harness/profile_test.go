package harness

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"npbgo"
	"npbgo/internal/fault"
	"npbgo/internal/profile"
	"npbgo/internal/report"
)

// TestProfiledSweepCapturesCells: a profiled sweep leaves one decodable
// CPU and heap profile per cell, and records their paths in the cell
// lines of the bench record.
func TestProfiledSweepCapturesCells(t *testing.T) {
	dir := t.TempDir()
	rec, path := newRecord(t, []npbgo.Benchmark{npbgo.CG}, []int{2})
	sw, err := rec.RunSweep(npbgo.CG, 'S', []int{2}, Options{ProfileDir: dir})
	if err != nil {
		t.Fatalf("profiled sweep failed: %v", err)
	}
	if len(sw.Runs) != 2 {
		t.Fatalf("runs = %d, want serial + t2", len(sw.Runs))
	}
	for _, r := range sw.Runs {
		if r.CPUProfile == "" || r.HeapProfile == "" {
			t.Fatalf("cell t%d missing profile paths: %+v", r.Threads, r)
		}
		if _, err := profile.Hot(r.CPUProfile, false); err != nil {
			t.Fatalf("cell t%d CPU profile undecodable: %v", r.Threads, err)
		}
		if _, err := profile.Hot(r.HeapProfile, true); err != nil {
			t.Fatalf("cell t%d heap profile undecodable: %v", r.Threads, err)
		}
	}
	for i, c := range readRecord(t, path).Cells {
		if c.CPUProfile != sw.Runs[i].CPUProfile || c.HeapProfile != sw.Runs[i].HeapProfile {
			t.Fatalf("cell line lost profile paths: %+v", c)
		}
		if c.Env != nil {
			t.Fatalf("in-process cell carries a per-cell env (should only differ under isolation): %+v", c.Env)
		}
	}
}

// TestFailedCellProfileFlushedBeforeFail is the ordering satellite: a
// cell killed by an injected panic must have its CPU profile flushed
// and decodable on disk, and named in its record line, before the next
// cell starts — so before FAIL rendering too.
func TestFailedCellProfileFlushedBeforeFail(t *testing.T) {
	fault.Activate(
		fault.Rule{Site: "cg.iter", Kind: fault.KindPanic, Count: -1},
		fault.Rule{Site: "harness.cell", Kind: fault.KindDelay, On: 2, Sleep: 500 * time.Millisecond})
	defer fault.Reset()
	dir := t.TempDir()
	cpu, _ := profile.CellPaths(dir, "CG.S.serial")
	rec, path := newRecord(t, []npbgo.Benchmark{npbgo.CG}, []int{1})
	var sw Sweep
	atSecondCell(t, func() { sw, _ = rec.RunSweep(npbgo.CG, 'S', []int{1}, Options{ProfileDir: dir}) }, func() {
		if m := failedLine(t, path); m.CPUProfile != cpu {
			t.Fatalf("failed cell line names profile %q, want %q", m.CPUProfile, cpu)
		}
		if _, err := profile.Hot(cpu, false); err != nil {
			t.Fatalf("failed cell's profile not decodable when its line landed: %v", err)
		}
	})
	if sw.Runs[0].Err == nil || sw.Runs[0].CPUProfile != cpu {
		t.Fatalf("serial run = %+v, want a failed cell with its partial profile collected", sw.Runs[0])
	}
}

// TestIsolatedProfileRoundTrip: under isolation the child captures its
// own profiles into the shared per-cell paths; the parent collects them
// and suppresses the child's env when identical to its own.
func TestIsolatedProfileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	res, env, err := runIsolated(context.Background(),
		npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 1},
		0, isolationForTest(t), dir, "CG.S.serial", "")
	if err != nil {
		t.Fatalf("isolated profiled cell failed: %v", err)
	}
	if !res.Verified {
		t.Fatalf("isolated result unverified: %+v", res)
	}
	if env != nil {
		t.Fatalf("child env = %+v, want nil (same binary, same host)", env)
	}
	cpu, heap := profile.CellPaths(dir, "CG.S.serial")
	if _, err := profile.Hot(cpu, false); err != nil {
		t.Fatalf("child-captured CPU profile undecodable: %v", err)
	}
	if _, err := profile.Hot(heap, true); err != nil {
		t.Fatalf("child-captured heap profile undecodable: %v", err)
	}
}

// TestIsolatedKilledCellRecordsNoEmptyProfile: runtime/pprof writes the
// CPU profile proto only at StopCPUProfile, so a SIGKILL'd child leaves
// a zero-byte file — no samples survive a hard kill. The harness must
// not dress that up as data: the empty file is filtered out, the killed
// cell's record carries no profile path (absence, not a torn file), and
// pprof rejects the empty file loudly if pointed at it anyway.
func TestIsolatedKilledCellRecordsNoEmptyProfile(t *testing.T) {
	iso := isolationForTest(t)
	iso.FaultRules = []fault.Rule{{Site: "cg.iter", Kind: fault.KindDelay,
		Count: -1, Sleep: 30 * time.Second}}
	dir := t.TempDir()
	opt := Options{Timeout: 500 * time.Millisecond, Isolate: iso, ProfileDir: dir}
	r := runCell(context.Background(), npbgo.CG, 'S', 0, opt)
	var ke *KilledError
	if !asKilled(r.Err, &ke) {
		t.Fatalf("err = %v, want KilledError", r.Err)
	}
	cpu, _ := profile.CellPaths(dir, "CG.S.serial")
	st, err := os.Stat(cpu)
	if err != nil {
		t.Fatalf("child never created its CPU profile file: %v", err)
	}
	if st.Size() != 0 {
		// The kill landed after a flush; then the file must be stamped.
		if r.CPUProfile != cpu {
			t.Fatalf("non-empty profile %q not collected into the killed cell's record", cpu)
		}
		return
	}
	if r.CPUProfile != "" {
		t.Fatalf("killed cell CPUProfile = %q, want empty (file has no bytes)", r.CPUProfile)
	}
	if _, err := profile.Hot(cpu, false); err == nil {
		t.Fatal("pprof accepted a zero-byte profile")
	}
}

// TestRunCellMainStampsEnv: the child-side entry point always stamps
// its environment into the CellResult, the raw material of the parent's
// differs-from-header suppression.
func TestRunCellMainStampsEnv(t *testing.T) {
	var out strings.Builder
	spec := `{"benchmark":"CG","class":"S","threads":1}`
	if code := RunCellMain(spec, &out); code != 0 {
		t.Fatalf("RunCellMain exit = %d, output %s", code, out.String())
	}
	var cr CellResult
	if err := json.Unmarshal([]byte(out.String()), &cr); err != nil {
		t.Fatalf("bad CellResult JSON: %v", err)
	}
	if cr.Env == nil || cr.Env.GoVersion == "" || cr.Env.NumCPU < 1 {
		t.Fatalf("child result carries no environment: %+v", cr.Env)
	}
	if *cr.Env != report.CollectEnv() {
		t.Fatalf("child env %+v differs from this process's (same process!)", cr.Env)
	}
}
