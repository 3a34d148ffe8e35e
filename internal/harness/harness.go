// Package harness drives the experiments of the paper's evaluation
// section: for each benchmark it runs a serial baseline plus a sweep of
// thread counts, derives speedup and efficiency, and assembles the
// rows of Tables 2-6. The same code backs cmd/npbsuite and the
// regression benchmarks.
//
// The harness is fault tolerant, in the shape of a serving stack's
// timeout/retry/bulkhead plumbing: every cell can be bounded by a
// per-attempt timeout, failed cells are retried with exponential
// backoff, and a cell that still fails is recorded as Run{Err: ...} and
// rendered as FAIL(reason) while the rest of the sweep continues — the
// paper's long multi-machine sweeps kept failing in partial ways (§5),
// and one bad cell must not cost the whole table.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"npbgo"
	"npbgo/internal/fault"
	"npbgo/internal/journal"
	"npbgo/internal/perfcount"
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
	Attempts int // benchmark executions this cell consumed (retries and repeats included)
	// Samples holds every successful repeat's elapsed time in run
	// order. Elapsed stays the best (minimum) sample — the headline the
	// tables print — but comparisons across records need the full
	// distribution: best-of-N discards exactly the noise a confidence
	// interval is built from (Hoefler & Belli's first rule).
	Samples []time.Duration
	Err     error           // non-nil marks a failed cell (after all retries)
	Obs     *team.Stats     // runtime metrics of the kept repeat, nil unless Options.Obs
	Phases  []timer.Phase   // phase profile of the kept repeat, nil unless the benchmark exposes timers
	Trace   *trace.Snapshot // event timeline of the kept repeat, nil unless Options.TraceDir
	// Counters is the hardware-counter attribution of the kept repeat,
	// nil unless Options.Counters and counters were available;
	// CountersNote records why it is nil when they were requested.
	Counters     *perfcount.Stats
	CountersNote string
	// CPUProfile/HeapProfile are the cell's captured pprof files, empty
	// unless Options.ProfileDir. A failed cell keeps what it flushed
	// before dying; a hard-killed child flushes nothing (runtime/pprof
	// writes only at stop), so its zero-byte file is filtered out and
	// the killed cell records no profile — absence, not a torn file.
	CPUProfile  string
	HeapProfile string
	// Env is the environment of the process that executed the cell, set
	// only when it differs from this (recording) process's environment —
	// which can only happen under Isolate.
	Env *report.EnvInfo
	// Replayed marks a cell restored from a journal on resume instead of
	// executed; its numbers are the earlier run's.
	Replayed bool
	// Schedule is the loop schedule the cell ran under ("" means
	// static), stamped from Options.Schedule so journaled records stay
	// comparable across scheduling policies.
	Schedule string
}

// SkipError marks a cell the harness refused to launch — today always
// the memory admission guard. It renders as SKIP(memory: need X, have
// Y) rather than FAIL: a skip is a correct answer ("this machine cannot
// fit this cell"), not a failure, so it neither fails the sweep nor
// counts as terminal in the journal (a resume on a bigger machine
// re-attempts it).
type SkipError struct {
	Need uint64 // estimated working-set bytes (Config.FootprintBytes)
	Have uint64 // admissible bytes after headroom
}

func (e *SkipError) Error() string {
	return fmt.Sprintf("memory: need %s, have %s", FormatBytes(e.Need), FormatBytes(e.Have))
}

// KilledError marks an isolated cell hard-killed by the parent-side
// watchdog: Reason is "timeout-killed" (deadline breach) or
// "oom-killed" (RSS limit breach), the two failure modes an in-process
// timeout cannot stop — a runaway loop ignores its context and an
// OOM-ing kernel takes the whole process with it.
type KilledError struct {
	Reason string // "timeout-killed" or "oom-killed"
	After  time.Duration
}

func (e *KilledError) Error() string {
	return fmt.Sprintf("isolated cell %s after %s", e.Reason, e.After.Round(time.Millisecond))
}

// Sweep is the measured row set of one benchmark/class.
type Sweep struct {
	Benchmark npbgo.Benchmark
	Class     byte
	Runs      []Run
}

// Options tunes sweep execution.
type Options struct {
	Warmup  bool // apply the CG warmup fix of §5.2
	Repeats int  // repetitions per cell, best time kept; < 1 means 1
	// Schedule selects the team loop schedule for every cell
	// (npbgo.Config.Schedule): "static" (default when empty), "dynamic",
	// "guided", "stealing" or "auto".
	Schedule string
	Timeout  time.Duration // per-attempt deadline; 0 means unbounded
	Retries  int           // extra attempts after a failed one, per repeat
	Backoff  time.Duration // first retry delay, doubling each retry; 0 means 100ms

	// Obs enables runtime-metrics collection (npbgo.Config.Obs) for
	// every cell; each cell's snapshot lands in Run.Obs.
	Obs bool
	// Counters enables per-region hardware-counter sampling
	// (npbgo.Config.Counters) for every cell; each cell's totals land in
	// Run.Counters, or Run.CountersNote records why they could not be
	// collected.
	Counters bool
	// Metrics, when non-nil, receives one report.CellMetrics JSON line
	// per cell as the sweep progresses.
	Metrics io.Writer
	// ProfileDir, when non-empty, captures a CPU and a heap profile per
	// cell into the directory as "<BENCH>.<class>.<cell>.cpu.pprof" /
	// ".heap.pprof" (serial baseline named "serial", like traces). The
	// capture brackets each attempt — outside the benchmark's timed
	// region — and is flushed before a failure is rendered, so a dying
	// cell leaves its profile as the post-mortem. Under Isolate the child
	// process captures and the parent collects the files. Repeats and
	// retries overwrite in place: the surviving profile is the last
	// attempt's, which for a failed cell is the failing one.
	ProfileDir string
	// TraceDir, when non-empty, enables execution tracing
	// (npbgo.Config.Trace) for every cell and writes each cell's
	// timeline into the directory as Chrome/Perfetto JSON —
	// "<BENCH>.<class>.t<N>.trace.json", with the serial baseline named
	// "serial" — ready for ui.perfetto.dev. The directory is created if
	// missing. A failed cell still writes its partial timeline; that
	// trace is the post-mortem.
	TraceDir string

	// Context, when non-nil, bounds the whole sweep: cancelling it stops
	// the current cell (cooperatively in-process, by hard kill under
	// Isolate), skips further retries, and interrupts any in-flight
	// retry backoff immediately.
	Context context.Context

	// Journal, when non-nil, receives a durable (fsync'd) start entry
	// before each cell executes and a finish entry — with the cell's
	// measured report.CellMetrics — after it ends. A journal append
	// failure aborts the sweep: silently losing durability would defeat
	// the journal's whole point.
	Journal *journal.Writer

	// Resume maps cells to the metrics recorded by an earlier run's
	// journal. A cell found here is replayed (Run.Replayed) instead of
	// executed, and writes no new journal entries — its original
	// entries already stand.
	Resume map[journal.CellKey]*report.CellMetrics

	// Isolate, when non-nil, runs every cell execution as a child
	// process under a watchdog instead of in-process (see Isolation).
	Isolate *Isolation

	// MemGuard, when non-nil, checks each cell's estimated footprint
	// against available memory before launch and records a
	// SKIP(memory: ...) cell instead of executing one that cannot fit.
	MemGuard *MemGuard

	// sleep replaces time.Sleep between retries; tests inject it to
	// verify backoff without waiting.
	sleep func(time.Duration)
}

// RunSweep executes benchmark bench at the given class for the serial
// baseline (threads = 1, regions inline) and each requested thread
// count. Repeats > 1 keeps the best (minimum) time per cell, as
// benchmarkers do to suppress scheduling noise. It is RunSweepOpts with
// only Warmup and Repeats set.
func RunSweep(bench npbgo.Benchmark, class byte, threads []int, warmup bool, repeats int) (Sweep, error) {
	return RunSweepOpts(bench, class, threads, Options{Warmup: warmup, Repeats: repeats})
}

// RunSweepOpts executes a sweep under the given options. The sweep
// degrades gracefully: a cell that fails (after opt.Retries retries per
// repeat) is recorded with Run.Err set and the remaining cells still
// run. The returned error joins the per-cell failures, so callers can
// both render the partial table and report that something went wrong.
// Journal append failures are the one hard stop — durability broken
// mid-sweep must not masquerade as a journaled run.
func RunSweepOpts(bench npbgo.Benchmark, class byte, threads []int, opt Options) (Sweep, error) {
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	sw := Sweep{Benchmark: bench, Class: class}
	var errs []error
	cells := append([]int{0}, threads...)
	for _, th := range cells {
		key := journal.CellKey{Benchmark: string(bench), Class: string(class), Threads: th}
		if m, ok := opt.Resume[key]; ok && m != nil {
			sw.Runs = append(sw.Runs, RunFromMetrics(*m))
			continue
		}
		var r Run
		var skip error
		if opt.MemGuard != nil {
			skip = opt.MemGuard.check(cellConfig(bench, class, th, opt))
		}
		status := journal.StatusOK
		switch {
		case skip != nil:
			r = Run{Threads: th, Err: skip}
			status = journal.StatusSkip
		default:
			if opt.Journal != nil {
				if err := opt.Journal.Start(key); err != nil {
					return sw, errors.Join(append(errs, err)...)
				}
			}
			r = runCell(ctx, bench, class, th, opt)
			if r.Err != nil {
				status = journal.StatusFail
			}
		}
		sw.Runs = append(sw.Runs, r)
		if opt.TraceDir != "" && r.Trace != nil {
			if err := writeTrace(opt.TraceDir, bench, class, r); err != nil {
				errs = append(errs, fmt.Errorf("%s.%c trace: %w", bench, class, err))
			}
		}
		// The metrics line is written — and, for a failed or killed cell,
		// flushed to stable storage — before anything that can abort the
		// sweep or render FAIL(...): the partial record of a dying cell is
		// the post-mortem, and it must survive even a journal append
		// failure on the very next statement.
		if opt.Metrics != nil {
			if err := report.WriteJSONL(opt.Metrics, cellMetrics(bench, class, r)); err != nil {
				errs = append(errs, fmt.Errorf("%s.%c metrics: %w", bench, class, err))
			} else if r.Err != nil {
				if err := flushWriter(opt.Metrics); err != nil {
					errs = append(errs, fmt.Errorf("%s.%c metrics flush: %w", bench, class, err))
				}
			}
		}
		if opt.Journal != nil {
			m := cellMetrics(bench, class, r)
			if err := opt.Journal.Finish(key, status, &m); err != nil {
				return sw, errors.Join(append(errs, err)...)
			}
		}
		if r.Err != nil && !IsSkip(r.Err) {
			cell := fmt.Sprintf("threads=%d", th)
			if th == 0 {
				cell = "serial"
			}
			errs = append(errs, fmt.Errorf("%s.%c %s: %w", bench, class, cell, r.Err))
		}
	}
	return sw, errors.Join(errs...)
}

// flushWriter pushes w's buffered data toward stable storage: a
// *bufio.Writer-style wrapper is flushed, an *os.File-style writer is
// fsync'd, and a writer offering neither (an in-memory buffer) needs
// nothing.
func flushWriter(w io.Writer) error {
	if f, ok := w.(interface{ Flush() error }); ok {
		if err := f.Flush(); err != nil {
			return err
		}
	}
	if f, ok := w.(interface{ Sync() error }); ok {
		return f.Sync()
	}
	return nil
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
		Warmup: opt.Warmup, Obs: opt.Obs, Trace: opt.TraceDir != "",
		Schedule: opt.Schedule, Counters: opt.Counters}
}

// PlannedCells is the journal's cell list for a sweep set: for every
// benchmark, the serial baseline followed by each thread count —
// exactly the execution order of RunSweepOpts, so the plan and the run
// cannot drift.
func PlannedCells(benches []npbgo.Benchmark, class byte, threads []int) []journal.CellKey {
	var out []journal.CellKey
	for _, b := range benches {
		for _, th := range append([]int{0}, threads...) {
			out = append(out, journal.CellKey{Benchmark: string(b), Class: string(class), Threads: th})
		}
	}
	return out
}

// RunFromMetrics reconstructs a Run from a journaled cell record, for
// resume replay. Obs/trace snapshots are not round-tripped — the
// journal keeps the flattened counters, which is what the tables and
// bench records need.
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
	r.Counters = m.Counters
	r.CountersNote = m.CountersNote
	r.CPUProfile = m.CPUProfile
	r.HeapProfile = m.HeapProfile
	r.Env = m.Env
	return r
}

// runCell measures one cell: opt.Repeats repeats (best time kept), each
// repeat retried with exponential backoff on failure.
func runCell(ctx context.Context, bench npbgo.Benchmark, class byte, threads int, opt Options) Run {
	repeats := opt.Repeats
	if repeats < 1 {
		repeats = 1
	}
	cfg := cellConfig(bench, class, threads, opt)
	label := fmt.Sprintf("%s.%c.%s", bench, class, cellName(threads))
	var best *Run
	var samples []time.Duration
	attempts := 0
	for rep := 0; rep < repeats; rep++ {
		res, env, used, err := runAttempts(ctx, cfg, label, opt)
		attempts += used
		if err != nil {
			// A cancelled/failed run still carries its partial obs
			// snapshot (cancellation counts, busy time up to the stop),
			// which is exactly what a post-mortem wants to see — plus
			// the samples of the repeats that did complete.
			r := Run{Threads: threads, Attempts: attempts, Samples: samples,
				Err: err, Obs: res.Obs, Phases: res.Phases, Trace: res.Trace,
				Counters: res.Counters, CountersNote: res.CountersNote,
				Schedule: opt.Schedule, Env: env}
			stampProfiles(&r, opt, label)
			return r
		}
		samples = append(samples, res.Elapsed)
		r := Run{Threads: threads, Elapsed: res.Elapsed, Mops: res.Mops,
			Verified: res.Verified, Tier: res.Tier, Obs: res.Obs, Phases: res.Phases,
			Trace: res.Trace, Counters: res.Counters, CountersNote: res.CountersNote,
			Schedule: opt.Schedule, Env: env}
		if best == nil || r.Elapsed < best.Elapsed {
			cp := r
			best = &cp
		}
	}
	best.Attempts = attempts
	best.Samples = samples
	stampProfiles(best, opt, label)
	return *best
}

// stampProfiles records the cell's profile files on r — by probing the
// filesystem, not by trusting the runner: a hard-killed isolated child
// reports nothing back, but any profile it managed to flush before
// dying is on disk. Empty files (a SIGKILL'd child's never-flushed CPU
// profile) are filtered: absence must stay distinguishable from data.
func stampProfiles(r *Run, opt Options, label string) {
	if opt.ProfileDir == "" {
		return
	}
	cpu, heap := profile.CellPaths(opt.ProfileDir, label)
	if fileNonEmpty(cpu) {
		r.CPUProfile = cpu
	}
	if fileNonEmpty(heap) {
		r.HeapProfile = heap
	}
}

func fileNonEmpty(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Size() > 0
}

// hostEnv is this process's environment snapshot, collected once — it
// heads every bench record and is the baseline per-cell child
// environments are compared against.
var hostEnvOnce = struct {
	once sync.Once
	env  report.EnvInfo
}{}

func hostEnv() report.EnvInfo {
	hostEnvOnce.once.Do(func() { hostEnvOnce.env = report.CollectEnv() })
	return hostEnvOnce.env
}

// runAttempts runs one measurement, retrying transient failures up to
// opt.Retries times with exponential backoff. The backoff sleep is
// context-interruptible: cancelling the sweep mid-backoff returns
// immediately instead of waiting out the delay, and a cancelled sweep
// stops retrying. It returns the number of attempts consumed.
func runAttempts(ctx context.Context, cfg npbgo.Config, label string, opt Options) (npbgo.Result, *report.EnvInfo, int, error) {
	backoff := opt.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	for attempt := 1; ; attempt++ {
		res, env, err := runOnce(ctx, cfg, label, opt)
		if err == nil {
			return res, env, attempt, nil
		}
		if attempt > opt.Retries || ctx.Err() != nil {
			return res, env, attempt, err
		}
		if !sleepCtx(ctx, backoff, opt.sleep) {
			return res, env, attempt, err
		}
		backoff *= 2
	}
}

// sleepCtx sleeps for d or until ctx is cancelled, reporting whether
// the full delay elapsed. An injected test sleeper bypasses the timer.
func sleepCtx(ctx context.Context, d time.Duration, injected func(time.Duration)) bool {
	if injected != nil {
		injected(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// runOnce is a single panic-isolated, optionally deadline-bounded
// benchmark execution — in-process by default, or a watchdogged child
// process under opt.Isolate. The returned EnvInfo is non-nil only when
// an isolated child ran under a different environment than the parent.
func runOnce(ctx context.Context, cfg npbgo.Config, label string, opt Options) (res npbgo.Result, env *report.EnvInfo, err error) {
	// Defer ordering is load-bearing: the recovery defer is registered
	// first, so during a panic unwind the capture Stop defer (registered
	// below, thus running earlier) flushes and fsyncs the profile BEFORE
	// the panic becomes an error — before FAIL(...) rendering, before
	// any journal abort. Same discipline as the PR 9 metrics flush.
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("harness: cell panicked: %v", v)
		}
	}()
	if opt.Isolate != nil {
		fault.Maybe("harness.cell")
		return runIsolated(ctx, cfg, opt.Timeout, opt.Isolate, opt.ProfileDir, label)
	}
	if opt.ProfileDir != "" {
		cap, perr := profile.Start(opt.ProfileDir, label)
		if perr != nil {
			return res, nil, fmt.Errorf("harness: %w", perr)
		}
		defer func() {
			if serr := cap.Stop(); serr != nil && err == nil {
				err = fmt.Errorf("harness: %w", serr)
			}
		}()
	}
	fault.Maybe("harness.cell")
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	res, err = npbgo.RunContext(ctx, cfg)
	return res, nil, err
}

// cellName is the short per-cell tag used in trace filenames and
// labels: "t<N>", or "serial" for the baseline column.
func cellName(threads int) string {
	if threads == 0 {
		return "serial"
	}
	return fmt.Sprintf("t%d", threads)
}

// writeTrace exports one cell's event timeline as a Chrome/Perfetto
// trace file into dir.
func writeTrace(dir string, bench npbgo.Benchmark, class byte, r Run) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cell := cellName(r.Threads)
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s.%c.%s.trace.json", bench, class, cell)))
	if err != nil {
		return err
	}
	werr := r.Trace.WriteChrome(f, fmt.Sprintf("%s.%c %s", bench, class, cell))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// failReason compresses a cell error into the short tag rendered inside
// FAIL(...) table cells.
func failReason(err error) string {
	var ke *KilledError
	if errors.As(err, &ke) {
		return ke.Reason
	}
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
func (s Sweep) Serial() (Run, bool) {
	for _, r := range s.Runs {
		if r.Threads == 0 {
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
// for a cell that failed after all retries, or SKIP(memory: ...) for a
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
// benchmark.class, columns: serial + thread counts, cells: seconds or
// FAIL(reason)).
func SuiteTable(title string, sweeps []Sweep, threads []int) string {
	header := []string{"Benchmark", "Serial"}
	for _, t := range threads {
		header = append(header, fmt.Sprintf("%d", t))
	}
	header = append(header, "verified")
	tb := report.New(title, header...)
	for _, sw := range sweeps {
		row := []string{fmt.Sprintf("%s.%c", sw.Benchmark, sw.Class)}
		ver := "yes"
		anyOK := false
		if base, ok := sw.Serial(); ok {
			row = append(row, cellText(base))
			if base.Err == nil {
				anyOK = true
				if !base.Verified {
					ver = "no(" + base.Tier + ")"
				}
			}
		} else {
			row = append(row, "-")
		}
		for _, t := range threads {
			found := false
			for _, r := range sw.Runs {
				if r.Threads == t {
					row = append(row, cellText(r))
					if r.Err == nil {
						anyOK = true
						if !r.Verified && ver == "yes" {
							ver = "no(" + r.Tier + ")"
						}
					}
					found = true
					break
				}
			}
			if !found {
				row = append(row, "-")
			}
		}
		if !anyOK {
			ver = "-" // no cell completed, so nothing was verified
		}
		row = append(row, ver)
		tb.AddRow(row...)
	}
	return tb.String()
}

// BenchRecordFrom assembles the machine-readable performance record of
// a sweep set under the current schema and host header. It is the one
// producer of report.BenchRecord, so the schema stamp, the host
// dimensions and the cell layout (including per-repeat samples) cannot
// drift between writers.
func BenchRecordFrom(class byte, sweeps []Sweep, stamp string) report.BenchRecord {
	env := hostEnv()
	return report.BenchRecord{
		Schema:     report.BenchSchema,
		Stamp:      stamp,
		Class:      string(class),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Env:        &env,
		Cells:      CellRecords(sweeps),
	}
}

// CellRecords flattens every measured cell of a sweep set into its
// structured metrics record, in sweep order — the cell list of a
// report.BenchRecord.
func CellRecords(sweeps []Sweep) []report.CellMetrics {
	var out []report.CellMetrics
	for _, sw := range sweeps {
		for _, r := range sw.Runs {
			out = append(out, cellMetrics(sw.Benchmark, sw.Class, r))
		}
	}
	return out
}

// cellMetrics flattens one measured cell into its structured JSONL
// record.
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
	m.Counters = r.Counters
	m.CountersNote = r.CountersNote
	m.CPUProfile = r.CPUProfile
	m.HeapProfile = r.HeapProfile
	m.Env = r.Env
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

// CountersTable renders the hardware-counter summary of a sweep set:
// one row per measured cell with IPC, the LLC miss rate, raw
// cycle/instruction/miss totals and the multiplexing scale — the
// evidence table behind every memory-bound diagnosis. Cells whose
// counters were requested but unavailable render their note instead, so
// a missing measurement is never mistaken for silent zeros.
func CountersTable(title string, sweeps []Sweep) string {
	tb := report.New(title, "Cell", "Set", "IPC", "MissRate", "Cycles", "Instr", "LLCMiss", "BrMiss", "Scale")
	for _, sw := range sweeps {
		for _, r := range sw.Runs {
			cell := fmt.Sprintf("%s.%c %s", sw.Benchmark, sw.Class, cellName(r.Threads))
			c := r.Counters
			if c == nil {
				if r.CountersNote != "" {
					tb.AddRow(cell, r.CountersNote)
				}
				continue
			}
			tb.AddRow(cell, c.Set,
				fmt.Sprintf("%.2f", c.IPC()),
				fmt.Sprintf("%.4f", c.LLCMissRate()),
				fmt.Sprintf("%d", c.Cycles),
				fmt.Sprintf("%d", c.Instructions),
				fmt.Sprintf("%d", c.LLCMisses),
				fmt.Sprintf("%d", c.BranchMisses),
				fmt.Sprintf("%.2f", c.Scale()))
		}
	}
	if tb.NumRows() == 0 {
		tb.AddRow("(no counter data)")
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
