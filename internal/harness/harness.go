// Package harness drives the experiments of the paper's evaluation
// section: for each benchmark it runs a serial baseline plus a sweep of
// thread counts into a bench record (Record), and renders the rows of
// Tables 2-6 from that record. It backs cmd/npbsuite.
//
// A cell's record line (report.CellMetrics) is its only value: runCell
// builds it once, Record.RunSweep keeps it — in the -bench-json file,
// or in memory when there is none — and SuiteTable and ObsTable render
// from lines alone, so a resumed sweep prints what the live one did.
// Speedup and efficiency are perfstat.Scaling's, over the same record.
//
// The harness is fault tolerant: every run of a cell can be bounded by a
// timeout and is panic-isolated, and a cell that fails is recorded with
// its error and rendered as FAIL(reason) while the rest of the sweep
// continues — the paper's long multi-machine sweeps kept failing in
// partial ways (§5), and one bad cell must not cost the whole table. A
// failed cell runs once and is terminal: its line lands in the record
// and a resume replays it as failed; a fresh sweep runs it again.
package harness

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"npbgo"
	"npbgo/internal/fault"
	"npbgo/internal/profile"
	"npbgo/internal/report"
	"npbgo/internal/timer"
	"npbgo/internal/trace"
)

// SkipError marks a cell the harness refused to launch — today always
// the memory admission guard. It renders as SKIP(memory: need X, have
// Y) rather than FAIL: a skip is a correct answer ("this machine cannot
// fit this cell"), not a failure, so it neither fails the sweep nor
// writes a line to the record (a resume on a bigger machine
// re-attempts it).
type SkipError struct {
	Need uint64 // estimated working-set bytes (Config.FootprintBytes)
	Have uint64 // admissible bytes after headroom
}

func (e *SkipError) Error() string {
	return fmt.Sprintf("memory: need %s, have %s", formatBytes(e.Need), formatBytes(e.Have))
}

// Options tunes sweep execution.
type Options struct {
	Repeats int // repetitions per cell, best time kept; < 1 means 1
	// Schedule selects the team loop schedule for every cell
	// (npbgo.Config.Schedule): "static" (default when empty) or
	// "dynamic" (own static block first, then stealing).
	Schedule string
	Timeout  time.Duration // per-run deadline; 0 means unbounded

	// Obs enables runtime-metrics collection (npbgo.Config.Obs) for
	// every cell; each cell's snapshot is flattened into its line.
	Obs bool
	// ProfileDir, when non-empty, captures a CPU and a heap profile per
	// cell into the directory as "<BENCH>.<class>.<cell>.cpu.pprof" /
	// ".heap.pprof" (serial baseline named "serial", like traces). The
	// capture brackets the cell's repeats — outside each run's timed
	// region — so the CPU profile holds every repeat, and is flushed
	// before the cell's record line and any FAIL rendering, so a dying
	// cell leaves its profile, up to the failing repeat, as the
	// post-mortem.
	ProfileDir string
	// TraceDir, when non-empty, enables execution tracing
	// (npbgo.Config.Trace) for every cell and writes each cell's Go
	// execution trace into the directory as
	// "<BENCH>.<class>.<cell>.trace" (serial baseline named "serial",
	// like profiles), for `go tool trace` and `npbperf trace`. The
	// directory is created if missing. A failed cell still writes its
	// partial trace, the post-mortem; repeats overwrite in place, so the
	// file is the last repeat's. A run that only annotated a tracer
	// already running writes no file.
	TraceDir string

	// Context, when non-nil, bounds the whole sweep: cancelling it stops
	// the current cell and the cells after it.
	Context context.Context
}

// cellConfig is the npbgo configuration of one cell under the sweep
// options.
func cellConfig(bench npbgo.Benchmark, class byte, threads int, opt Options) npbgo.Config {
	n := threads
	if n == 0 {
		n = 1 // the serial baseline runs with one inline worker
	}
	return npbgo.Config{Benchmark: bench, Class: class, Threads: n,
		Obs: opt.Obs, Trace: opt.TraceDir != "", Schedule: opt.Schedule}
}

// runCell measures one cell into its record line: opt.Repeats runs,
// best time kept, up to the first that fails. err is the failure the
// line records (Error, and the FAIL(...) reason in Fail). A profiled
// cell's capture brackets all of its repeats, so its CPU profile holds
// every repeat; it is flushed before runCell returns, so before the
// cell's line lands and anything renders FAIL(...).
func runCell(ctx context.Context, bench npbgo.Benchmark, class byte, threads int, opt Options) (m report.CellMetrics, err error) {
	m = report.CellMetrics{Benchmark: string(bench), Class: string(class), Threads: threads, Schedule: opt.Schedule}
	defer func() {
		if err != nil {
			m.Error, m.Fail = err.Error(), failReason(err)
		}
	}()
	cfg := cellConfig(bench, class, threads, opt)
	label := fmt.Sprintf("%s.%c.%s", bench, class, cellName(threads))
	if opt.ProfileDir != "" {
		cap, perr := profile.Start(opt.ProfileDir, label)
		if perr != nil {
			return m, fmt.Errorf("harness: %w", perr)
		}
		defer func() {
			if serr := cap.Stop(); serr != nil && err == nil {
				err = fmt.Errorf("harness: %w", serr)
			}
			// Only files with data are recorded, so absence stays
			// distinguishable from data.
			if fileNonEmpty(cap.CPUPath()) {
				m.CPUProfile = cap.CPUPath()
			}
			if fileNonEmpty(cap.HeapPath()) {
				m.HeapProfile = cap.HeapPath()
			}
		}()
	}
	// kept is the best repeat, or the one that failed: a failed run
	// still carries its partial obs snapshot (cancellation counts, busy
	// time up to the stop), which is what a post-mortem wants to see,
	// beside the samples of the repeats that did complete.
	var kept npbgo.Result
	for rep := 1; rep <= max(opt.Repeats, 1); rep++ {
		res, rerr := runOnce(ctx, cfg, label, opt)
		m.Attempts = rep
		if rerr != nil {
			kept, err = res, rerr
			break
		}
		m.Samples = append(m.Samples, res.Elapsed.Seconds())
		if rep == 1 || res.Elapsed < kept.Elapsed {
			kept = res
		}
	}
	if err == nil {
		m.Elapsed, m.Mops, m.Verified, m.Tier = kept.Elapsed.Seconds(), kept.Mops, kept.Verified, kept.Tier
	}
	m.TopPhases = topPhases(kept.Phases, 5)
	if s := kept.Obs; s != nil {
		m.Regions = s.Regions
		m.Cancellations = s.Cancellations
		m.Panics = s.Panics
		m.BarrierWait = s.BarrierWait.Seconds()
		m.JoinWait = s.JoinWait.Seconds()
		m.Imbalance = s.Imbalance()
		m.WorkerBusy = make([]float64, len(s.Busy))
		m.WorkerWait = make([]float64, len(s.Wait))
		for i := range s.Busy {
			m.WorkerBusy[i] = s.Busy[i].Seconds()
			m.WorkerWait[i] = s.Wait[i].Seconds()
		}
	}
	return m, err
}

func fileNonEmpty(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Size() > 0
}

// hostEnv is this process's environment snapshot, collected once — it
// heads every bench record and is what a resumed record's header is
// compared against (Record.add).
var hostEnvOnce = struct {
	once sync.Once
	env  report.EnvInfo
}{}

func hostEnv() report.EnvInfo {
	hostEnvOnce.once.Do(func() { hostEnvOnce.env = report.CollectEnv() })
	return hostEnvOnce.env
}

// runContext runs one benchmark; tests substitute it, as they do the
// memory guard's probe.
var runContext = npbgo.RunContext

// runOnce is a single panic-isolated, optionally deadline-bounded
// benchmark execution in this process. A panic of its own (the
// harness.cell fault site, writeTrace) is a *npbgo.RunError of kind
// panic, as a team worker's is, so the cell renders FAIL(panic).
func runOnce(ctx context.Context, cfg npbgo.Config, label string, opt Options) (res npbgo.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &npbgo.RunError{Benchmark: cfg.Benchmark, Class: cfg.Class, Threads: cfg.Threads,
				Kind: npbgo.ErrPanic, Cause: fmt.Errorf("harness: cell panicked: %v", v)}
		}
	}()
	fault.Maybe("harness.cell")
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	res, err = runContext(ctx, cfg)
	if werr := writeTrace(opt.TraceDir, label, res.Trace); werr != nil && err == nil {
		err = werr
	}
	return res, err
}

// cellName is the short per-cell tag used in file names, labels and
// table rows: "t<N>", or "serial" for the baseline column.
func cellName(threads int) string {
	if threads == 0 {
		return "serial"
	}
	return fmt.Sprintf("t%d", threads)
}

// writeTrace writes a run's execution trace into dir as
// "<label>.trace", creating dir. No directory, or a run without a trace
// of its own, writes nothing.
func writeTrace(dir, label string, tr *trace.Tracer) error {
	if dir == "" || tr == nil || tr.Data == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("harness: trace: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, label+".trace"), tr.Data, 0o644); err != nil {
		return fmt.Errorf("harness: trace: %w", err)
	}
	return nil
}

// failReason compresses a cell error into the short tag rendered inside
// FAIL(...) table cells, and recorded as the line's Fail.
func failReason(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "timeout"
	}
	var re *npbgo.RunError
	if errors.As(err, &re) {
		return re.Kind
	}
	return "error"
}

// SuiteTable renders a record as one paper-style table (rows:
// benchmark.class, columns: serial + thread counts, cells: seconds,
// FAIL(reason) or SKIP(memory: ...)), from the record's lines and the
// memory guard's skips, which write none. The verified column reads
// "yes" only when every cell that ran completed and verified;
// "no(tier)" when a completed cell did not verify; "partial" when the
// completed cells verified but another failed; "-" when no cell
// completed. A skipped cell never ran, so it neither verifies a row nor
// fails it, and a planned cell without a line — one a cancelled sweep
// cut short — renders "-", pending like a skip.
func SuiteTable(title string, rec *Record) string {
	header := []string{"Benchmark", "Serial"}
	for _, t := range rec.Threads {
		header = append(header, strconv.Itoa(t))
	}
	header = append(header, "verified")
	tb := report.New(title, header...)
	for _, b := range rec.Benchmarks {
		row := []string{b + "." + rec.Class}
		completed, failed, unverified := false, false, ""
		for _, th := range append([]int{0}, rec.Threads...) {
			k := CellKey{Benchmark: b, Class: rec.Class, Threads: th}
			m, ok := rec.Cell(k)
			switch {
			case ok && m.Error != "":
				// A line written before Fail was recorded says only
				// that the cell failed.
				row = append(row, "FAIL("+cmp.Or(m.Fail, "error")+")")
				failed = true
			case ok:
				row = append(row, report.Seconds(m.Elapsed))
				completed = true
				if !m.Verified && unverified == "" {
					unverified = "no(" + m.Tier + ")"
				}
			case rec.skipped[k] != nil:
				row = append(row, "SKIP("+rec.skipped[k].Error()+")")
			default:
				row = append(row, "-")
			}
		}
		ver := "yes"
		switch {
		case !completed:
			ver = "-" // no cell completed, so nothing was verified
		case unverified != "":
			ver = unverified
		case failed:
			ver = "partial"
		}
		row = append(row, ver)
		tb.AddRow(row...)
	}
	return tb.String()
}

// topPhases returns up to n phases ordered by descending time.
func topPhases(phases []timer.Phase, n int) []report.PhaseMetric {
	if len(phases) == 0 {
		return nil
	}
	sorted := append([]timer.Phase(nil), phases...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Seconds > sorted[j].Seconds })
	if len(sorted) > n {
		sorted = sorted[:n]
	}
	out := make([]report.PhaseMetric, len(sorted))
	for i, p := range sorted {
		out[i] = report.PhaseMetric{Name: p.Name, Seconds: p.Seconds, Laps: p.Laps}
	}
	return out
}

// ObsTable renders the runtime-metrics summary of a record: one row per
// planned cell whose line carries obs data (worker_busy_sec), with the
// worker-imbalance ratio, the busy-time spread, aggregate barrier and
// join waits, and the two heaviest phases — the table the paper's §5.2
// CG diagnosis reads off (a healthy cell shows imbalance near 1.00; the
// scheduling anomaly shows a ratio near the thread count). Failed cells
// and cells without obs data are skipped.
func ObsTable(title string, rec report.BenchRecord) string {
	tb := report.New(title, "Cell", "Imbal", "BusyMin", "BusyMax", "Barrier", "Join", "Top phases")
	for _, k := range PlannedCells(rec) {
		m, ok := lineOf(rec, k)
		if !ok || m.Error != "" || len(m.WorkerBusy) == 0 {
			continue
		}
		phases := ""
		for i, p := range m.TopPhases[:min(len(m.TopPhases), 2)] {
			if i > 0 {
				phases += " "
			}
			phases += fmt.Sprintf("%s=%ss", p.Name, report.Seconds(p.Seconds))
		}
		tb.AddRow(fmt.Sprintf("%s.%s %s", k.Benchmark, k.Class, cellName(k.Threads)),
			fmt.Sprintf("%.2f", m.Imbalance),
			report.Seconds(slices.Min(m.WorkerBusy)),
			report.Seconds(slices.Max(m.WorkerBusy)),
			report.Seconds(m.BarrierWait),
			report.Seconds(m.JoinWait),
			cmp.Or(phases, "-"))
	}
	if tb.NumRows() == 0 {
		tb.AddRow("(no obs data)")
	}
	return tb.String()
}
