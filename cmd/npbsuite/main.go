// Command npbsuite regenerates the paper's Tables 2-6 for this host:
// every benchmark of the suite at one class, timed serial and across a
// sweep of thread counts, with speedup and efficiency summaries.
//
//	npbsuite -class S -threads 1,2,4 -repeats 2 -timeout 5m -retries 1
//
// The paper ran the same sweep on five SMP machines; on a single host
// the machine axis collapses and one table is produced. The sweep
// degrades gracefully: a cell that panics, times out (-timeout) or
// fails verification is retried (-retries, exponential backoff) and, if
// it still fails, rendered as FAIL(reason) while the rest of the table
// is produced; npbsuite then exits non-zero at the end.
//
// -schedule selects the team loop schedule for every cell (static —
// the default — dynamic, guided, stealing or auto; see DESIGN.md §14).
// Schedules redistribute loop chunks between workers without changing
// any numerical result; the chosen name is stamped into each cell's
// bench-record and journal rows so sweeps stay comparable.
//
// -list-faults prints the registered fault injection site keys (the
// same registry the npblint faultsite analyzer checks) and exits.
//
// -instrument turns instruments on for every cell, as a comma-separated
// list, and -instrument-dir (default instruments/) is where they write.
// obs collects per-worker runtime metrics (busy/barrier-wait time,
// imbalance ratio) and a phase profile, prints a metrics table after
// the sweeps and appends one JSON line per cell to DIR/metrics.jsonl.
// counters samples cycles, instructions, LLC loads/misses and branch
// misses per worker per parallel region via perf_event_open and prints
// a counter table (IPC, LLC miss rate); where counters are unavailable
// (restrictive perf_event_paranoid, no PMU in the VM or container,
// non-Linux build) the cells run unsampled and each record carries an
// explicit "counters: unavailable (<reason>)" note instead of silent
// zeros. trace records per-worker event timelines (region blocks,
// barrier arrive/release, LU pipeline waits) and writes one
// Chrome/Perfetto file per cell, "<BENCH>.<class>.<cell>.trace.json",
// for ui.perfetto.dev or `npbtrace validate`. profile captures a CPU
// and a heap profile per cell, "<BENCH>.<class>.<cell>.cpu.pprof" and
// ".heap.pprof", outside the timed region, recorded in the cell's
// records and decoded by `npbperf hotspots`; under -isolate the child
// captures and the parent collects the files, and a failing cell still
// flushes its profile (a hard-killed child flushes nothing, and its
// empty file is dropped rather than recorded as data). An unknown
// instrument name exits 2.
//
// -bench-json <path> writes the sweep's machine-readable performance
// record (schema npbgo/bench/v1: per-cell Mop/s, time, threads,
// imbalance under a stamped host header). Pointing it at a directory
// auto-names the file BENCH_<stamp>.json, so repeated sweeps
// accumulate a perf history. With -repeats N every repeat's elapsed
// time is recorded in the cell's samples_sec — the distribution
// `npbperf compare` builds its confidence intervals from — while the
// headline stays the best time.
//
// Crash safety (see DESIGN.md §12):
//
// -journal <path> writes a durable write-ahead journal of the sweep
// (schema npbgo/journal/v1, one fsync'd JSON line per event). If the
// process dies mid-sweep — OOM kill, power loss, ^C — the journal
// holds every completed cell's metrics. -resume <path> picks the sweep
// back up: the plan (class, threads, benchmarks) is read from the
// journal, completed cells are replayed from their recorded metrics
// without re-executing, and only pending or interrupted cells run.
//
// -isolate runs every cell in a child process (`npbsuite -run-cell`,
// an internal mode) under a parent-side watchdog: a cell that blows
// its -timeout or, with -mem-limit, its resident-set budget is
// hard-killed and recorded as FAIL(timeout-killed | oom-killed) while
// the sweep continues. -mem-guard consults each cell's estimated
// footprint against available memory first and records
// SKIP(memory: ...) for cells that cannot fit.
//
// -chaos runs a seeded chaos soak campaign instead of a sweep:
// -chaos-cells randomized cells drawn from -chaos-seed, each under a
// random fault/cancel/timeout schedule, with recovery invariants
// asserted after every cell. -check-journal <path> validates a journal
// and prints its state summary (the CI soak job's final gate).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"npbgo"
	"npbgo/internal/chaos"
	"npbgo/internal/fault"
	"npbgo/internal/harness"
	"npbgo/internal/journal"
	"npbgo/internal/perfcount"
	"npbgo/internal/report"
	"npbgo/internal/team"
)

func main() {
	class := flag.String("class", "S", "problem class: S W A B C")
	threadsFlag := flag.String("threads", "1,2,4", "comma-separated thread counts")
	benchFlag := flag.String("bench", "", "comma-separated benchmark subset (default: all)")
	repeats := flag.Int("repeats", 1, "repetitions per cell (best time kept)")
	warmup := flag.Bool("warmup", false, "apply the CG warmup fix of §5.2")
	schedule := flag.String("schedule", "", "team loop schedule: static (default), dynamic, guided, stealing or auto")
	timeout := flag.Duration("timeout", 0, "per-run deadline, e.g. 5m (0 = unbounded)")
	retries := flag.Int("retries", 0, "retries per failed run, with exponential backoff")
	instrumentFlag := flag.String("instrument", "", "comma-separated instruments to turn on per cell: "+strings.Join(instrumentNames, ", "))
	instrumentDir := flag.String("instrument-dir", "instruments", "with -instrument: directory for trace files, pprof files and (with obs) metrics.jsonl")
	benchJSON := flag.String("bench-json", "", "write the sweep's performance record as JSON to this path (a directory auto-names BENCH_<stamp>.json)")
	listFaults := flag.Bool("list-faults", false, "print the registered fault injection site keys and exit")
	journalPath := flag.String("journal", "", "write a durable sweep journal (fsync'd JSONL) to this path")
	resumePath := flag.String("resume", "", "resume an interrupted journaled sweep: replay completed cells, run the rest (plan read from the journal)")
	isolate := flag.Bool("isolate", false, "run every cell in a watchdogged child process; runaway or OOM-ing cells are killed and recorded as FAIL")
	memLimit := flag.String("mem-limit", "", "with -isolate: kill a cell whose resident set exceeds this size, e.g. 2GiB")
	memGuard := flag.Bool("mem-guard", false, "skip cells whose estimated memory footprint cannot fit in available memory")
	chaosFlag := flag.Bool("chaos", false, "run a seeded chaos soak campaign instead of a sweep (see -chaos-seed, -chaos-cells)")
	chaosSeed := flag.Int64("chaos-seed", 1, "with -chaos: campaign seed (same seed = same schedule = same failures)")
	chaosCells := flag.Int("chaos-cells", 8, "with -chaos: number of chaos cells to run")
	checkJournal := flag.String("check-journal", "", "validate a sweep journal, print its state summary, and exit")
	runCellMode := flag.Bool("run-cell", false, "internal: execute one cell from the JSON spec argument and print its result (used by -isolate)")
	flag.Parse()

	if *runCellMode {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "npbsuite: -run-cell needs exactly one cell-spec argument")
			os.Exit(2)
		}
		os.Exit(harness.RunCellMain(flag.Arg(0), os.Stdout))
	}
	if *listFaults {
		for _, site := range fault.Sites() {
			fmt.Println(site)
		}
		return
	}
	if *checkJournal != "" {
		os.Exit(checkJournalMain(*checkJournal))
	}

	var threads []int
	for _, tok := range strings.Split(*threadsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "npbsuite: bad thread count %q\n", tok)
			os.Exit(2)
		}
		threads = append(threads, n)
	}
	benches := npbgo.Benchmarks()
	if *benchFlag != "" {
		benches = nil
		for _, tok := range strings.Split(*benchFlag, ",") {
			benches = append(benches, npbgo.Benchmark(strings.ToUpper(strings.TrimSpace(tok))))
		}
	}
	cl := strings.ToUpper(*class)[0]
	if _, err := team.ParseSchedule(*schedule); err != nil {
		fmt.Fprintf(os.Stderr, "npbsuite: %v\n", err)
		os.Exit(2)
	}
	on, err := parseInstruments(*instrumentFlag)
	if err == nil && len(on) > 0 && *instrumentDir == "" {
		err = fmt.Errorf("-instrument needs a non-empty -instrument-dir")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "npbsuite: %v\n", err)
		os.Exit(2)
	}

	// ^C / SIGTERM cancels the sweep cooperatively: the current cell
	// stops (hard-killed under -isolate), retries and backoffs are
	// abandoned, and a journaled sweep stays resumable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *chaosFlag {
		camp := &chaos.Campaign{
			Seed:    *chaosSeed,
			Cells:   *chaosCells,
			Class:   cl,
			Threads: threads,
			Journal: *journalPath,
			Out:     os.Stdout,
		}
		if *benchFlag != "" {
			camp.Benchmarks = benches
		}
		if *timeout > 0 {
			camp.WallLimit = *timeout
		}
		rep, err := camp.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "npbsuite: chaos: %v\n", err)
			os.Exit(1)
		}
		if rep.Failed() {
			os.Exit(1)
		}
		return
	}

	opt := harness.Options{
		Warmup:   *warmup,
		Schedule: *schedule,
		Repeats:  *repeats,
		Timeout:  *timeout,
		Retries:  *retries,
		Backoff:  500 * time.Millisecond,
		Obs:      on["obs"],
		Counters: on["counters"],
		Context:  ctx,
	}
	if on["trace"] {
		opt.TraceDir = *instrumentDir
	}
	if on["profile"] {
		opt.ProfileDir = *instrumentDir
	}
	stamp := time.Now().UTC().Format("20060102T150405Z")
	switch {
	case *resumePath != "":
		w, lg, err := journal.AppendTo(*resumePath, stamp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "npbsuite: resume: %v\n", err)
			os.Exit(2)
		}
		defer w.Close()
		// The journal's plan is authoritative on resume: the sweep must
		// finish what was planned, not what today's flags happen to say.
		plan := lg.Plan()
		if plan.Class != "" {
			cl = plan.Class[0]
		}
		if len(plan.Threads) > 0 {
			threads = plan.Threads
		}
		if len(plan.Benchmarks) > 0 {
			benches = nil
			for _, name := range plan.Benchmarks {
				benches = append(benches, npbgo.Benchmark(name))
			}
		}
		st := lg.State()
		opt.Journal = w
		opt.Resume = st.Done
		fmt.Printf("resume: %s — %d of %d planned cells already done, %d pending%s\n",
			*resumePath, len(st.Done), len(plan.Planned), len(st.Pending()),
			map[bool]string{true: " (torn tail recovered)", false: ""}[lg.Truncated])
	case *journalPath != "":
		names := make([]string, len(benches))
		for i, b := range benches {
			names[i] = string(b)
		}
		w, err := journal.Create(*journalPath, journal.Plan{
			Stamp: stamp, Class: string(cl), Threads: threads,
			Benchmarks: names, Planned: harness.PlannedCells(benches, cl, threads),
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "npbsuite: journal: %v\n", err)
			os.Exit(2)
		}
		defer w.Close()
		opt.Journal = w
		fmt.Printf("journal: durable sweep journal at %s (resume with -resume %s)\n", *journalPath, *journalPath)
	}
	if *isolate {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "npbsuite: isolate: %v\n", err)
			os.Exit(2)
		}
		iso := &harness.Isolation{Cmd: []string{exe, "-run-cell"}}
		if *memLimit != "" {
			n, err := harness.ParseBytes(*memLimit)
			if err != nil {
				fmt.Fprintf(os.Stderr, "npbsuite: %v\n", err)
				os.Exit(2)
			}
			iso.MemLimitBytes = n
		}
		opt.Isolate = iso
		fmt.Printf("isolate: cells run as watchdogged child processes%s\n",
			map[bool]string{true: ", RSS limit " + *memLimit, false: ""}[*memLimit != ""])
	} else if *memLimit != "" {
		fmt.Fprintln(os.Stderr, "npbsuite: -mem-limit requires -isolate (RSS is watched from outside the cell process)")
		os.Exit(2)
	}
	if *memGuard {
		opt.MemGuard = &harness.MemGuard{}
		if avail, ok := harness.AvailableMemory(); ok {
			fmt.Printf("mem-guard: admission checks against %s available\n", harness.FormatBytes(avail))
		}
	}

	fmt.Printf("NPB-Go suite sweep: class %c, GOMAXPROCS=%d, host CPUs=%d\n\n",
		cl, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if len(on) > 0 {
		fmt.Printf("instrument: %s, written to %s/\n\n", *instrumentFlag, *instrumentDir)
	}
	if on["counters"] {
		if err := perfcount.Probe(); err != nil {
			fmt.Printf("counters: unavailable (%v) — cells run unsampled, records carry the note\n\n", err)
		}
	}
	if on["obs"] {
		f, err := openMetrics(*instrumentDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "npbsuite: obs metrics: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		opt.Metrics = f
	}
	var sweeps []harness.Sweep
	failed := false
	for _, b := range benches {
		sw, err := harness.RunSweepOpts(b, cl, threads, opt)
		if err != nil {
			// A failed cell does not abort the suite: report it, keep the
			// partial sweep, and finish the table.
			fmt.Fprintf(os.Stderr, "npbsuite: %s: %v\n", b, err)
			failed = true
		}
		sweeps = append(sweeps, sw)
		if base, ok := sw.Serial(); ok && base.Err == nil {
			fmt.Printf("  %s.%c serial %.3fs (%.1f Mop/s)\n", b, cl, base.Elapsed.Seconds(), base.Mops)
		}
	}
	fmt.Println()
	fmt.Print(harness.SuiteTable(
		fmt.Sprintf("Benchmark times in seconds (class %c) — cf. paper Tables 2-6", cl),
		sweeps, threads))
	fmt.Println()
	fmt.Print(harness.SpeedupTable("Speedup S(n) and efficiency E(n) over serial", sweeps, threads))
	if on["obs"] {
		fmt.Println()
		fmt.Print(harness.ObsTable("Runtime metrics (imbalance = max busy / mean busy; cf. §5.2)", sweeps))
	}
	if on["counters"] {
		fmt.Println()
		fmt.Print(harness.CountersTable("Hardware counters (IPC = instructions/cycle; miss rate = LLC misses/loads)", sweeps))
	}
	if *benchJSON != "" {
		path, err := writeBenchRecord(*benchJSON, cl, sweeps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "npbsuite: bench-json: %v\n", err)
			failed = true
		} else {
			fmt.Printf("\nbench-json: performance record written to %s\n", path)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// instrumentNames are the -instrument spellings.
var instrumentNames = []string{"obs", "counters", "trace", "profile"}

// parseInstruments parses the -instrument list into the set of names
// turned on.
func parseInstruments(list string) (map[string]bool, error) {
	on := map[string]bool{}
	if list == "" {
		return on, nil
	}
	for _, tok := range strings.Split(list, ",") {
		name := strings.TrimSpace(tok)
		if !slices.Contains(instrumentNames, name) {
			return nil, fmt.Errorf("unknown instrument %q (want a comma-separated list of %s)", name, strings.Join(instrumentNames, ", "))
		}
		on[name] = true
	}
	return on, nil
}

// openMetrics opens dir/metrics.jsonl for appending, creating dir.
func openMetrics(dir string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return os.OpenFile(filepath.Join(dir, "metrics.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// checkJournalMain validates a sweep journal and prints its state
// summary; it is the CI soak job's final gate. Exit 0 means the journal
// parsed under the current schema; a recovered torn tail is reported
// but is not a failure (that is the journal working as designed).
func checkJournalMain(path string) int {
	lg, err := journal.Read(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "npbsuite: check-journal: %v\n", err)
		return 1
	}
	plan := lg.Plan()
	st := lg.State()
	fmt.Printf("journal: %s\n", path)
	fmt.Printf("  schema:  %s (%d entries)\n", journal.Schema, len(lg.Entries))
	if plan.Stamp != "" {
		fmt.Printf("  stamp:   %s\n", plan.Stamp)
	}
	fmt.Printf("  plan:    class %s, %d cells\n", plan.Class, len(plan.Planned))
	fmt.Printf("  state:   %d done, %d skipped, %d pending, %d resume marker(s)\n",
		len(st.Done), len(st.Skipped), len(st.Pending()), st.Resumes)
	if lg.Truncated {
		fmt.Println("  note:    torn trailing line dropped (crash-interrupted append); journal is resumable")
	}
	return 0
}

// writeBenchRecord writes the sweep's machine-readable performance
// record. A directory path (existing, or ending in a separator) gets an
// auto-stamped BENCH_<stamp>.json inside it and is created if missing.
func writeBenchRecord(path string, class byte, sweeps []harness.Sweep) (string, error) {
	stamp := time.Now().UTC().Format("20060102T150405Z")
	isDir := strings.HasSuffix(path, string(os.PathSeparator))
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		isDir = true
	}
	if isDir {
		if err := os.MkdirAll(path, 0o755); err != nil {
			return "", err
		}
		path = filepath.Join(path, "BENCH_"+stamp+".json")
	}
	rec := harness.BenchRecordFrom(class, sweeps, stamp)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	werr := report.WriteBenchJSON(f, rec)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return path, werr
}
