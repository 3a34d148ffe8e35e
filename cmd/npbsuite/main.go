// Command npbsuite regenerates the paper's Tables 2-6 for this host:
// every benchmark of the suite at one class, timed serial and across a
// sweep of thread counts, with speedup and efficiency summaries.
//
//	npbsuite -class S -threads 1,2,4 -repeats 2 -timeout 5m -retries 1
//
// -bench picks a subset of the eight (the default), and takes the
// paper's other tables' entries too (npbgo.Config.Benchmark), which
// the default never runs: Tables 1, 0 and 7 are
//
//	npbsuite -class A -bench ASSIGN,STENCIL1,STENCIL2,MATVEC,REDSUM -threads 1,2
//	npbsuite -class A -bench ASSIGN_NESTED,STENCIL1_NESTED,STENCIL2_NESTED,MATVEC_NESTED,REDSUM_NESTED -threads 1
//	npbsuite -class A -bench LUFACT,DGETRF -threads 1   (and -class B, C)
//
// (make tables). An operation cell is the time of 20 invocations (for
// Assignment, 200 copies).
//
// The paper ran the same sweep on five SMP machines; on a single host
// the machine axis collapses and one table is produced. The sweep
// degrades gracefully: a cell that panics, times out (-timeout) or
// fails verification is retried (-retries, exponential backoff) and, if
// it still fails, rendered as FAIL(reason) while the rest of the table
// is produced; npbsuite then exits non-zero at the end.
//
// -schedule selects the team loop schedule for every cell (static —
// the default — dynamic, guided or stealing; see DESIGN.md §14).
// Schedules redistribute loop chunks between workers without changing
// any numerical result; the chosen name is stamped into each cell's
// bench-record line so sweeps stay comparable.
//
// -list-faults prints the registered fault injection site keys and
// exits.
//
// -instrument turns instruments on for every cell, as a comma-separated
// list, and -instrument-dir (default instruments/) is where they write.
// obs collects per-worker runtime metrics (busy/barrier-wait time,
// imbalance ratio) and a phase profile, prints a metrics table after
// the sweeps and adds them to each cell's -bench-json line. trace
// runs each cell under the Go execution tracer, annotated with the
// run's regions, worker blocks, barrier and pipeline waits and phases,
// and writes one trace per cell, "<BENCH>.<class>.<cell>.trace", for
// `go tool trace` or `npbperf trace validate|summary`. profile
// captures a CPU and a heap profile per cell,
// "<BENCH>.<class>.<cell>.cpu.pprof" and ".heap.pprof", outside the
// timed region, recorded in the cell's records and decoded by `npbperf
// hotspots`; a failing cell still flushes its profile. An unknown
// instrument name exits 2.
//
// -bench-json <path> records the sweep (schema npbgo/bench/v2, JSON
// Lines): a header with the plan and the host's environment, then one
// line per cell with its Mop/s, time, threads and instrument data,
// appended and fsync'd as the cell finishes. Pointing it at a directory
// auto-names the file BENCH_<stamp>.json, so repeated sweeps
// accumulate a perf history. With -repeats N every repeat's elapsed
// time is recorded in the cell's samples_sec — the distribution
// `npbperf scaling` takes each cell's median over — while the headline
// stays the best time.
//
// Crash safety (see DESIGN.md §12): every cell runs in this process,
// bounded by -timeout, and only after a memory admission check: a cell
// whose estimated footprint cannot fit in available memory is recorded
// as SKIP(memory: need X, have Y) instead of being run. The -bench-json
// record is also the sweep's journal. If the process dies mid-sweep —
// OOM kill, power loss, ^C — the record holds every finished cell, and
// npbperf reads it. -resume <path> picks the sweep back up: the plan
// (class, threads, benchmarks) is read from the record's header,
// recorded cells are replayed without re-executing, and only the cells
// without a line (skipped ones included) run.
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
	"npbgo/internal/fault"
	"npbgo/internal/harness"
	"npbgo/internal/team"
)

func main() {
	class := flag.String("class", "S", "problem class: S W A B C")
	threadsFlag := flag.String("threads", "1,2,4", "comma-separated thread counts")
	benchFlag := flag.String("bench", "", "comma-separated benchmark subset (default: all)")
	repeats := flag.Int("repeats", 1, "repetitions per cell (best time kept)")
	warmup := flag.Bool("warmup", false, "apply the CG warmup fix of §5.2")
	schedule := flag.String("schedule", "", "team loop schedule: static (default), dynamic, guided or stealing")
	timeout := flag.Duration("timeout", 0, "per-run deadline, e.g. 5m (0 = unbounded)")
	retries := flag.Int("retries", 0, "retries per failed run, with exponential backoff")
	instrumentFlag := flag.String("instrument", "", "comma-separated instruments to turn on per cell: "+strings.Join(instrumentNames, ", "))
	instrumentDir := flag.String("instrument-dir", "instruments", "with -instrument: directory for trace and pprof files")
	benchJSON := flag.String("bench-json", "", "record the sweep to this path, one fsync'd JSON line per cell (a directory auto-names BENCH_<stamp>.json)")
	listFaults := flag.Bool("list-faults", false, "print the registered fault injection site keys and exit")
	resumePath := flag.String("resume", "", "resume an interrupted -bench-json record: replay its cells, run the rest (plan read from the record)")
	flag.Parse()

	if *listFaults {
		for _, site := range fault.Sites() {
			fmt.Println(site)
		}
		return
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
	cl, err := parseClass(*class)
	if err == nil {
		_, err = team.ParseSchedule(*schedule)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "npbsuite: %v\n", err)
		os.Exit(2)
	}
	on, err := parseInstruments(*instrumentFlag)
	if err == nil && len(on) > 0 && *instrumentDir == "" {
		err = fmt.Errorf("-instrument needs a non-empty -instrument-dir")
	}
	if err == nil && *resumePath != "" && *benchJSON != "" {
		err = fmt.Errorf("-resume appends to the record it names; drop -bench-json")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "npbsuite: %v\n", err)
		os.Exit(2)
	}

	// ^C / SIGTERM cancels the sweep cooperatively: the current cell
	// stops, retries and backoffs are abandoned, and the cut-short cells
	// write no -bench-json line, so -resume runs them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := harness.Options{
		Warmup:   *warmup,
		Schedule: *schedule,
		Repeats:  *repeats,
		Timeout:  *timeout,
		Retries:  *retries,
		Backoff:  500 * time.Millisecond,
		Obs:      on["obs"],
		Context:  ctx,
	}
	if on["trace"] {
		opt.TraceDir = *instrumentDir
	}
	if on["profile"] {
		opt.ProfileDir = *instrumentDir
	}
	stamp := time.Now().UTC().Format("20060102T150405Z")
	var rec *harness.Record
	switch {
	case *resumePath != "":
		var torn bool
		rec, torn, err = harness.ResumeRecord(*resumePath)
		if err == nil {
			// The record's plan is authoritative on resume: the sweep must
			// finish what was planned, not what today's flags happen to say.
			cl, err = parseClass(rec.Class)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "npbsuite: resume: %v\n", err)
			os.Exit(2)
		}
		threads, benches = rec.Threads, nil
		for _, name := range rec.Benchmarks {
			benches = append(benches, npbgo.Benchmark(name))
		}
		planned := harness.PlannedCells(benches, cl, threads)
		done := 0
		for _, k := range planned {
			if _, ok := rec.Cell(k); ok {
				done++
			}
		}
		fmt.Printf("resume: %s — %d of %d planned cells already done, %d pending%s\n",
			*resumePath, done, len(planned), len(planned)-done,
			map[bool]string{true: " (torn tail recovered)", false: ""}[torn])
	case *benchJSON != "":
		path, err := recordPath(*benchJSON, stamp)
		if err == nil {
			rec, err = harness.CreateRecord(path, stamp, benches, cl, threads)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "npbsuite: bench-json: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("bench-json: recording each cell to %s as it finishes (resume with -resume %s)\n", path, path)
	}
	fmt.Printf("NPB-Go suite sweep: class %c, GOMAXPROCS=%d, host CPUs=%d\n\n",
		cl, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if len(on) > 0 {
		fmt.Printf("instrument: %s, written to %s/\n\n", *instrumentFlag, *instrumentDir)
	}
	var sweeps []harness.Sweep
	failed := false
	for _, b := range benches {
		sw, err := rec.RunSweep(b, cl, threads, opt)
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
		fmt.Sprintf("Benchmark times in seconds (class %c) — cf. paper Tables 0-7", cl),
		sweeps, threads))
	fmt.Println()
	fmt.Print(harness.SpeedupTable("Speedup S(n) and efficiency E(n) over serial", sweeps, threads))
	if on["obs"] {
		fmt.Println()
		fmt.Print(harness.ObsTable("Runtime metrics (imbalance = max busy / mean busy; cf. §5.2)", sweeps))
	}
	if rec != nil {
		if err := rec.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "npbsuite: bench-json: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// parseClass parses -class: exactly one letter, upper- or lower-case.
// Whether the suite knows the class is npbgo.Run's to say, so an
// unknown letter still degrades to FAIL(config) rows.
func parseClass(s string) (byte, error) {
	if len(s) != 1 {
		return 0, fmt.Errorf("-class must be one letter, got %q", s)
	}
	return strings.ToUpper(s)[0], nil
}

// instrumentNames are the -instrument spellings.
var instrumentNames = []string{"obs", "trace", "profile"}

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

// recordPath resolves -bench-json: a directory (existing, or ending in a
// separator) gets an auto-stamped BENCH_<stamp>.json inside it. The
// record's directory is created if missing, since the record opens
// before any cell runs.
func recordPath(path, stamp string) (string, error) {
	isDir := strings.HasSuffix(path, string(os.PathSeparator))
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		isDir = true
	}
	if isDir {
		path = filepath.Join(path, "BENCH_"+stamp+".json")
	}
	return path, os.MkdirAll(filepath.Dir(path), 0o755)
}
