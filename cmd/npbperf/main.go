// Command npbperf explains what npbsuite writes, one file at a time:
// in the bench records of -bench-json (schema npbgo/bench/v2), the
// paper's §5 scalability diagnostics and the hot functions of each
// cell; in the execution traces of -instrument
// trace, their check and per-worker summary. It does not judge one
// record against another; the repository's benchmark/ runner is the
// one judge of speed.
//
//	npbperf scaling  [-json] [-fail-on list] record.json...
//	npbperf hotspots [-json] [-top n] [-heap] [-min-attr pct] [-require] record.json...
//	npbperf trace    validate|summary file.trace...
//
// scaling prints speedup, efficiency and the Karp–Flatt serial
// fraction per (benchmark, class) thread curve — the table npbsuite
// prints after its sweep. A cell's speedup is its serial cell's median
// time over its own, medians over the repeat samples; a group without
// a serial cell that completed has no speedup. Rule-based anomaly flags
// join the obs counters in the record at fixed thresholds:
// load-imbalance (§5.2 CG, imbalance ≥ 1.5), barrier-sync (§5 LU
// pipeline, barrier share ≥ 0.2) and small-work (§5 IS, median under
// 1 ms). -fail-on takes a comma-separated list of those anomaly names
// and turns any diagnosed occurrence into exit code 1, which is how CI
// asserts that a CG class-W sweep under `-schedule static` stays clear
// of the load-imbalance flag.
//
// hotspots reads the per-cell pprof profiles a sweep captured with
// npbsuite -instrument profile (paths recorded in each cell) into symbolized
// flat/cumulative hot-function tables, by running the toolchain's
// `go tool pprof -top` (so `go` must be on PATH). Each cell's table
// is joined with its recorded imbalance, so one row answers both where
// the time went and whether the workers shared it. -json emits npbgo/profile/v1
// records; -heap analyzes allocation (alloc_space) profiles; -min-attr
// exits 1 when a decoded CPU profile attributes less than the given
// percentage to symbolized npbgo/internal/... code (the CI floor);
// -require exits 1 when no cell carries a readable profile. A profile
// pprof cannot read (a truncated or damaged file) renders as an
// explicit "undecodable:" note with pprof's reason, never silently.
//
// trace reads each trace with the toolchain's `go tool trace
// -d=parsed` (internal/trace; `go` must be on PATH). validate checks
// that spans pair and nest on every goroutine, that no goroutine's clock
// goes back and that every annotation belongs to a task begun in the
// trace, and prints one line per valid file; summary prints each file's
// per-track busy and wait time. A file that fails exits 1, naming it:
// this is how CI gates the trace pipeline.
//
// scaling and hotspots take -json for machine-readable output. Exit
// codes: 0 clean, 1 a gate tripped (scaling with -fail-on, hotspots with
// -min-attr/-require, a trace that fails), 2 usage or input error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"npbgo/internal/perfstat"
	"npbgo/internal/report"
	"npbgo/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "scaling":
		return runScaling(args[1:], stdout, stderr)
	case "hotspots":
		return runHotspots(args[1:], stdout, stderr)
	case "trace":
		return runTrace(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "npbperf: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `usage:
  npbperf scaling  [-json] [-fail-on list] record.json...
  npbperf hotspots [-json] [-top n] [-heap] [-min-attr pct] [-require] record.json...
  npbperf trace    validate|summary file.trace...
`)
}

// runTrace validates or summarizes each execution trace it is given.
func runTrace(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 || args[0] != "validate" && args[0] != "summary" {
		usage(stderr)
		return 2
	}
	for _, path := range args[1:] {
		f, err := trace.Read(path)
		if err != nil {
			fmt.Fprintf(stderr, "npbperf: %s: %v\n", path, err)
			return 1
		}
		if args[0] == "validate" {
			fmt.Fprintf(stdout, "ok %s: %d annotations, %d tracks, %d tasks\n", path, f.Events, len(f.Tracks), len(f.Tasks))
		} else {
			fmt.Fprintf(stdout, "%s:\n%s\n", path, f)
		}
	}
	return 0
}

// readRecords loads every bench record of every named file.
func readRecords(paths []string, stderr io.Writer) ([]report.BenchRecord, bool) {
	var out []report.BenchRecord
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "npbperf: %v\n", err)
			return nil, false
		}
		recs, err := report.ReadBenchRecords(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "npbperf: %s: %v\n", path, err)
			return nil, false
		}
		out = append(out, recs...)
	}
	return out, true
}

// writeJSON emits v as indented JSON.
func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func runScaling(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scaling", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "machine-readable output")
	failOn := fs.String("fail-on", "", "comma-separated anomaly names that make the exit code 1 when diagnosed")
	if fs.Parse(args) != nil || fs.NArg() < 1 {
		usage(stderr)
		return 2
	}
	fatal, ok := parseFailOn(*failOn, stderr)
	if !ok {
		return 2
	}
	recs, ok := readRecords(fs.Args(), stderr)
	if !ok {
		return 2
	}
	exit := 0
	for _, rec := range recs {
		analysis := perfstat.Scaling(rec)
		if *jsonOut {
			writeJSON(stdout, struct {
				Stamp  string                  `json:"stamp"`
				Groups []perfstat.BenchScaling `json:"groups"`
			}{rec.Stamp, analysis})
		} else {
			fmt.Fprintf(stdout, "record %s (GOMAXPROCS=%d, CPUs=%d)\n", rec.Stamp, rec.Env.GoMaxProcs, rec.Env.NumCPU)
			fmt.Fprint(stdout, perfstat.ScalingTable(analysis))
			fmt.Fprintln(stdout)
		}
		for _, bs := range analysis {
			for _, a := range bs.Anomalies {
				if fatal[a] {
					fmt.Fprintf(stderr, "npbperf: %s.%s diagnosed %s (listed in -fail-on)\n",
						bs.Benchmark, bs.Class, a)
					exit = 1
				}
			}
		}
	}
	return exit
}

// parseFailOn turns the -fail-on list into an anomaly set, rejecting
// names the scaling rules can never produce so a typo in a CI gate
// fails the job instead of silently never matching.
func parseFailOn(list string, stderr io.Writer) (map[perfstat.Anomaly]bool, bool) {
	fatal := make(map[perfstat.Anomaly]bool)
	if list == "" {
		return fatal, true
	}
	known := map[perfstat.Anomaly]bool{
		perfstat.LoadImbalance: true,
		perfstat.BarrierSync:   true,
		perfstat.SmallWork:     true,
	}
	for _, name := range strings.Split(list, ",") {
		a := perfstat.Anomaly(strings.TrimSpace(name))
		if !known[a] {
			fmt.Fprintf(stderr, "npbperf: -fail-on: unknown anomaly %q (known: %s, %s, %s)\n",
				a, perfstat.LoadImbalance, perfstat.BarrierSync, perfstat.SmallWork)
			return nil, false
		}
		fatal[a] = true
	}
	return fatal, true
}
