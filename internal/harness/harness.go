// Package harness drives the experiments of the paper's evaluation
// section: for each benchmark it runs a serial baseline plus a sweep of
// thread counts, derives speedup and efficiency, and assembles the
// rows of Tables 2-6. It backs cmd/npbsuite.
//
// The harness is fault tolerant: every run of a cell can be bounded by a
// timeout and is panic-isolated, and a cell that fails is recorded as
// Run{Err: ...} and rendered as FAIL(reason) while the rest of the
// sweep continues — the paper's long multi-machine sweeps kept failing
// in partial ways (§5), and one bad cell must not cost the whole table.
// A failed cell runs once and is terminal: its line lands in the record
// and a resume replays it as failed; a fresh sweep runs it again.
package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"npbgo"
	"npbgo/internal/fault"
	"npbgo/internal/profile"
	"npbgo/internal/report"
	"npbgo/internal/team"
	"npbgo/internal/timer"
	"npbgo/internal/trace"
)

// Run is one measured cell of a sweep.
type Run struct {
	Threads  int // 0 marks the serial baseline column
	Elapsed  time.Duration
	Mops     float64
	Verified bool
	Tier     string
	Attempts int // benchmark executions this cell consumed (one per repeat run)
	// Samples holds every successful repeat's elapsed time in run
	// order. Elapsed stays the best (minimum) sample — the headline the
	// tables print — while the record keeps the full distribution, and
	// npbperf scaling takes each cell's median over it (Hoefler &
	// Belli's first rule: do not report best-of-N alone).
	Samples []time.Duration
	Err     error         // non-nil marks a failed cell
	Obs     *team.Stats   // runtime metrics of the kept repeat, nil unless Options.Obs
	Phases  []timer.Phase // phase profile of the kept repeat, nil unless the benchmark exposes timers
	Trace   *trace.Tracer // tracer of the kept repeat; nil without Options.TraceDir
	// CPUProfile/HeapProfile are the cell's captured pprof files, empty
	// unless Options.ProfileDir. A failed cell keeps what it flushed
	// before dying.
	CPUProfile  string
	HeapProfile string
	// Replayed marks a cell restored from a record's line on resume
	// instead of executed; its numbers are the earlier run's.
	Replayed bool
	// Schedule is the loop schedule the cell ran under ("" means
	// static), stamped from Options.Schedule so recorded cells stay
	// comparable across scheduling policies.
	Schedule string
}

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

// Sweep is the measured row set of one benchmark/class.
type Sweep struct {
	Benchmark npbgo.Benchmark
	Class     byte
	Runs      []Run
}

// Options tunes sweep execution.
type Options struct {
	Repeats int // repetitions per cell, best time kept; < 1 means 1
	// Schedule selects the team loop schedule for every cell
	// (npbgo.Config.Schedule): "static" (default when empty), "dynamic",
	// "guided" or "stealing".
	Schedule string
	Timeout  time.Duration // per-run deadline; 0 means unbounded

	// Obs enables runtime-metrics collection (npbgo.Config.Obs) for
	// every cell; each cell's snapshot lands in Run.Obs.
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

// RunSweepOpts executes benchmark bench at the given class for the
// serial baseline (threads = 1, regions inline) and each requested
// thread count, under the given options. Every cell runs in this
// process, bounded by opt.Timeout, once the memory admission guard
// (admit) has let it in. opt.Repeats > 1 keeps the best (minimum) time
// per cell, as benchmarkers do to suppress scheduling noise. The sweep
// degrades gracefully: a cell that fails is recorded with Run.Err set
// and the remaining cells still run. The returned error joins the
// per-cell failures, so callers can both render the partial table and
// report that something went wrong. Record.RunSweep is the same sweep
// written to a bench record.
func RunSweepOpts(bench npbgo.Benchmark, class byte, threads []int, opt Options) (Sweep, error) {
	return runSweep(bench, class, threads, opt, nil)
}

func runSweep(bench npbgo.Benchmark, class byte, threads []int, opt Options, rec *Record) (Sweep, error) {
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	sw := Sweep{Benchmark: bench, Class: class}
	var errs []error
	cells := append([]int{0}, threads...)
	for _, th := range cells {
		var r Run
		if m, ok := rec.Cell(CellKey{Benchmark: string(bench), Class: string(class), Threads: th}); ok {
			// A replayed failure fails the sweep as it did when it ran.
			r = RunFromMetrics(m)
		} else {
			if skip := admit(cellConfig(bench, class, th, opt)); skip != nil {
				sw.Runs = append(sw.Runs, Run{Threads: th, Err: skip})
				continue
			}
			r = runCell(ctx, bench, class, th, opt)
			// The cell's line lands, fsync'd, before anything renders
			// FAIL(...) or the next cell starts: the partial record of a
			// dying cell is its post-mortem. A cell the sweep's
			// cancellation (^C, SIGTERM) cut short writes no line, nor
			// does any cell after it, so a resume runs them; a -timeout
			// failure is the cell's own and stays terminal.
			if r.Err == nil || ctx.Err() == nil {
				if err := rec.add(cellMetrics(bench, class, r)); err != nil {
					sw.Runs = append(sw.Runs, r)
					return sw, errors.Join(append(errs, fmt.Errorf("%s.%c record: %w", bench, class, err))...)
				}
			}
		}
		sw.Runs = append(sw.Runs, r)
		if r.Err != nil {
			cell := fmt.Sprintf("threads=%d", th)
			if th == 0 {
				cell = "serial"
			}
			errs = append(errs, fmt.Errorf("%s.%c %s: %w", bench, class, cell, r.Err))
		}
	}
	return sw, errors.Join(errs...)
}

// IsSkip reports whether err is (or wraps) a cell skip — an admission
// decision, not a failure.
func IsSkip(err error) bool {
	var se *SkipError
	return errors.As(err, &se)
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

// RunFromMetrics reconstructs a Run from a recorded cell line, for
// resume replay. Obs/trace snapshots are not round-tripped — the line
// keeps the flattened counters, which is what the tables need.
func RunFromMetrics(m report.CellMetrics) Run {
	r := Run{
		Threads:  m.Threads,
		Elapsed:  time.Duration(m.Elapsed * float64(time.Second)),
		Mops:     m.Mops,
		Verified: m.Verified,
		Attempts: m.Attempts,
		Replayed: true,
		Schedule: m.Schedule,
	}
	for _, s := range m.Samples {
		r.Samples = append(r.Samples, time.Duration(s*float64(time.Second)))
	}
	if m.Error != "" {
		r.Err = errors.New(m.Error)
	}
	r.CPUProfile = m.CPUProfile
	r.HeapProfile = m.HeapProfile
	return r
}

// runCell measures one cell: opt.Repeats runs, best time kept, up to
// the first that fails. A profiled cell's capture brackets all of them,
// so its CPU profile holds every repeat; it is flushed before runCell
// returns, so before the cell's record line and any FAIL rendering.
func runCell(ctx context.Context, bench npbgo.Benchmark, class byte, threads int, opt Options) (r Run) {
	cfg := cellConfig(bench, class, threads, opt)
	label := fmt.Sprintf("%s.%c.%s", bench, class, cellName(threads))
	if opt.ProfileDir != "" {
		cap, err := profile.Start(opt.ProfileDir, label)
		if err != nil {
			return Run{Threads: threads, Err: fmt.Errorf("harness: %w", err), Schedule: opt.Schedule}
		}
		defer func() {
			if err := cap.Stop(); err != nil && r.Err == nil {
				r.Err = fmt.Errorf("harness: %w", err)
			}
			// Only files with data are recorded, so absence stays
			// distinguishable from data.
			if fileNonEmpty(cap.CPUPath()) {
				r.CPUProfile = cap.CPUPath()
			}
			if fileNonEmpty(cap.HeapPath()) {
				r.HeapProfile = cap.HeapPath()
			}
		}()
	}
	var best *Run
	var samples []time.Duration
	repeats := max(opt.Repeats, 1)
	for rep := 1; rep <= repeats; rep++ {
		res, err := runOnce(ctx, cfg, label, opt)
		if err != nil {
			// A cancelled/failed run still carries its partial obs
			// snapshot (cancellation counts, busy time up to the stop),
			// which is exactly what a post-mortem wants to see — plus
			// the samples of the repeats that did complete.
			return Run{Threads: threads, Attempts: rep, Samples: samples,
				Err: err, Obs: res.Obs, Phases: res.Phases, Trace: res.Trace,
				Schedule: opt.Schedule}
		}
		samples = append(samples, res.Elapsed)
		run := Run{Threads: threads, Elapsed: res.Elapsed, Mops: res.Mops,
			Verified: res.Verified, Tier: res.Tier, Obs: res.Obs, Phases: res.Phases,
			Trace: res.Trace, Schedule: opt.Schedule}
		if best == nil || run.Elapsed < best.Elapsed {
			best = &run
		}
	}
	best.Attempts = repeats
	best.Samples = samples
	return *best
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
	res, err = npbgo.RunContext(ctx, cfg)
	if werr := writeTrace(opt.TraceDir, label, res.Trace); werr != nil && err == nil {
		err = werr
	}
	return res, err
}

// cellName is the short per-cell tag used in file names and labels:
// "t<N>", or "serial" for the baseline column.
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
// FAIL(...) table cells.
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

// Serial returns the serial baseline cell.
func (s Sweep) Serial() (Run, bool) { return s.cell(0) }

// cell returns the run of the given column (0: the serial baseline).
func (s Sweep) cell(threads int) (Run, bool) {
	for _, r := range s.Runs {
		if r.Threads == threads {
			return r, true
		}
	}
	return Run{}, false
}

// Speedup returns serial time / threaded time for the given cell.
func (s Sweep) Speedup(threads int) float64 {
	base, ok := s.Serial()
	if !ok || base.Err != nil {
		return 0
	}
	for _, r := range s.Runs {
		if r.Threads == threads && r.Err == nil && r.Elapsed > 0 {
			return base.Elapsed.Seconds() / r.Elapsed.Seconds()
		}
	}
	return 0
}

// Efficiency returns Speedup(threads)/threads.
func (s Sweep) Efficiency(threads int) float64 {
	if threads <= 0 {
		return 0
	}
	return s.Speedup(threads) / float64(threads)
}

// cellText renders one measured cell: its time in seconds, FAIL(reason)
// for a cell that failed, or SKIP(memory: ...) for a
// cell the admission guard withheld.
func cellText(r Run) string {
	var se *SkipError
	if errors.As(r.Err, &se) {
		return "SKIP(" + se.Error() + ")"
	}
	if r.Err != nil {
		return "FAIL(" + failReason(r.Err) + ")"
	}
	return report.Seconds(r.Elapsed.Seconds())
}

// SuiteTable renders a set of sweeps as one paper-style table (rows:
// benchmark.class, columns: serial + thread counts, cells: seconds,
// FAIL(reason) or SKIP(memory: ...)). The verified column reads "yes"
// only when every cell that ran completed and verified; "no(tier)" when
// a completed cell did not verify; "partial" when the completed cells
// verified but another failed; "-" when no cell completed. A skipped
// cell never ran, so it neither verifies a row nor fails it.
func SuiteTable(title string, sweeps []Sweep, threads []int) string {
	header := []string{"Benchmark", "Serial"}
	for _, t := range threads {
		header = append(header, fmt.Sprintf("%d", t))
	}
	header = append(header, "verified")
	tb := report.New(title, header...)
	for _, sw := range sweeps {
		row := []string{fmt.Sprintf("%s.%c", sw.Benchmark, sw.Class)}
		completed, failed, unverified := false, false, ""
		for _, t := range append([]int{0}, threads...) {
			r, ok := sw.cell(t)
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, cellText(r))
			switch {
			case IsSkip(r.Err):
			case r.Err != nil:
				failed = true
			default:
				completed = true
				if !r.Verified && unverified == "" {
					unverified = "no(" + r.Tier + ")"
				}
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

// cellMetrics flattens one measured cell into its record line.
func cellMetrics(bench npbgo.Benchmark, class byte, r Run) report.CellMetrics {
	m := report.CellMetrics{
		Benchmark: string(bench),
		Class:     string(class),
		Threads:   r.Threads,
		Elapsed:   r.Elapsed.Seconds(),
		Mops:      r.Mops,
		Verified:  r.Verified,
		Attempts:  r.Attempts,
		TopPhases: topPhases(r.Phases, 5),
		Schedule:  r.Schedule,
	}
	if len(r.Samples) > 0 {
		m.Samples = make([]float64, len(r.Samples))
		for i, s := range r.Samples {
			m.Samples[i] = s.Seconds()
		}
	}
	if r.Err != nil {
		m.Error = r.Err.Error()
	}
	m.CPUProfile = r.CPUProfile
	m.HeapProfile = r.HeapProfile
	if s := r.Obs; s != nil {
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
	return m
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

// ObsTable renders the runtime-metrics summary of a sweep set: one row
// per measured cell with the worker-imbalance ratio, the busy-time
// spread, aggregate barrier and join waits, and the heaviest phases —
// the table the paper's §5.2 CG diagnosis reads off (a healthy cell
// shows imbalance near 1.00; the scheduling anomaly shows a ratio near
// the thread count). Cells without obs data are skipped.
func ObsTable(title string, sweeps []Sweep) string {
	tb := report.New(title, "Cell", "Imbal", "BusyMin", "BusyMax", "Barrier", "Join", "Top phases")
	for _, sw := range sweeps {
		for _, r := range sw.Runs {
			if r.Obs == nil || r.Err != nil {
				continue
			}
			cell := fmt.Sprintf("%s.%c t%d", sw.Benchmark, sw.Class, r.Threads)
			if r.Threads == 0 {
				cell = fmt.Sprintf("%s.%c serial", sw.Benchmark, sw.Class)
			}
			phases := ""
			for i, p := range topPhases(r.Phases, 2) {
				if i > 0 {
					phases += " "
				}
				phases += fmt.Sprintf("%s=%ss", p.Name, report.Seconds(p.Seconds))
			}
			if phases == "" {
				phases = "-"
			}
			tb.AddRow(cell,
				fmt.Sprintf("%.2f", r.Obs.Imbalance()),
				report.Seconds(r.Obs.MinBusy().Seconds()),
				report.Seconds(r.Obs.MaxBusy().Seconds()),
				report.Seconds(r.Obs.BarrierWait.Seconds()),
				report.Seconds(r.Obs.JoinWait.Seconds()),
				phases)
		}
	}
	if tb.NumRows() == 0 {
		tb.AddRow("(no obs data)")
	}
	return tb.String()
}

// SpeedupTable renders speedup and efficiency per thread count.
func SpeedupTable(title string, sweeps []Sweep, threads []int) string {
	header := []string{"Benchmark"}
	for _, t := range threads {
		header = append(header, fmt.Sprintf("S(%d)", t), fmt.Sprintf("E(%d)", t))
	}
	tb := report.New(title, header...)
	for _, sw := range sweeps {
		row := []string{fmt.Sprintf("%s.%c", sw.Benchmark, sw.Class)}
		for _, t := range threads {
			row = append(row, report.Speedup(sw.Speedup(t)), report.Speedup(sw.Efficiency(t)))
		}
		tb.AddRow(row...)
	}
	return tb.String()
}
