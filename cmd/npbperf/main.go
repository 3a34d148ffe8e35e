// Command npbperf explains what npbsuite writes, one file at a time:
// in the bench records of -bench-json (schema npbgo/bench/v2), the
// paper's §5 scalability diagnostics, the hardware-counter view and the
// hot functions of each cell; in the execution traces of -instrument
// trace, their check and per-worker summary. It does not judge one
// record against another; the repository's benchmark/ runner is the
// one judge of speed.
//
//	npbperf scaling  [-json] [-imbalance 1.5] [-barrier-share 0.2] [-small-work 0.001] [-ipc-drop 0.15] [-miss-rise 0.25] [-fail-on list] record.json...
//	npbperf counters [-json] [-require] record.json...
//	npbperf hotspots [-json] [-top n] [-heap] [-min-attr pct] [-require] record.json...
//	npbperf trace    validate|summary file.trace...
//
// scaling prints speedup, efficiency and the Karp–Flatt serial
// fraction per (benchmark, class) thread curve, plus rule-based
// anomaly flags joined from the obs counters in the record:
// load-imbalance (§5.2 CG), barrier-sync (§5 LU pipeline), small-work
// (§5 IS) and memory-bound (IPC falling while the LLC miss rate rises
// as threads grow — needs records written with npbsuite -instrument counters).
// -fail-on takes a comma-separated list of those anomaly names and
// turns any diagnosed occurrence into exit code 1, which is how CI
// asserts that a CG class-W sweep under `-schedule static` stays clear
// of the load-imbalance flag.
//
// counters prints the per-benchmark hardware-counter view of each
// record: IPC, LLC miss rate, and cycles/instructions/misses per
// iteration-second of the cell. Cells whose counters were requested but
// unavailable print their "unavailable (<reason>)" note. -require exits
// 1 when no cell of any record carries counters or a note — the CI
// smoke's "never silent zeros" assertion.
//
// hotspots reads the per-cell pprof profiles a sweep captured with
// npbsuite -instrument profile (paths recorded in each cell) into symbolized
// flat/cumulative hot-function tables, by running the toolchain's
// `go tool pprof -top` (so `go` must be on PATH). Each cell's table
// is joined with its recorded imbalance and IPC, so one row answers
// both where the time went and why. -json emits npbgo/profile/v1
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
// scaling, counters and hotspots take -json for machine-readable
// output. Exit codes: 0 clean, 1 a gate tripped (scaling with -fail-on,
// counters with -require, hotspots with -min-attr/-require, a trace
// that fails), 2 usage or input error.
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
	case "counters":
		return runCounters(args[1:], stdout, stderr)
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
  npbperf scaling  [-json] [-imbalance r] [-barrier-share s] [-small-work sec] [-ipc-drop f] [-miss-rise f] [-fail-on list] record.json...
  npbperf counters [-json] [-require] record.json...
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
	imbalance := fs.Float64("imbalance", 1.5, "imbalance ratio at which load-imbalance flags")
	barrierShare := fs.Float64("barrier-share", 0.2, "barrier-wait share at which barrier-sync flags")
	smallWork := fs.Float64("small-work", 0.001, "median seconds below which small-work flags")
	ipcDrop := fs.Float64("ipc-drop", 0.15, "fractional IPC drop vs baseline at which memory-bound flags")
	missRise := fs.Float64("miss-rise", 0.25, "fractional LLC miss-rate rise vs baseline at which memory-bound flags")
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
	opt := perfstat.ScalingOptions{
		ImbalanceMin:    *imbalance,
		BarrierShareMin: *barrierShare,
		SmallWorkSec:    *smallWork,
		IPCDropMin:      *ipcDrop,
		MissRiseMin:     *missRise,
	}
	exit := 0
	for _, rec := range recs {
		analysis := perfstat.Scaling(rec, opt)
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
		perfstat.MemoryBound:   true,
	}
	for _, name := range strings.Split(list, ",") {
		a := perfstat.Anomaly(strings.TrimSpace(name))
		if !known[a] {
			fmt.Fprintf(stderr, "npbperf: -fail-on: unknown anomaly %q (known: %s, %s, %s, %s)\n",
				a, perfstat.LoadImbalance, perfstat.BarrierSync, perfstat.SmallWork, perfstat.MemoryBound)
			return nil, false
		}
		fatal[a] = true
	}
	return fatal, true
}

// counterRow is the JSON shape of one cell in `npbperf counters -json`.
type counterRow struct {
	Benchmark    string  `json:"benchmark"`
	Class        string  `json:"class"`
	Threads      int     `json:"threads"`
	Set          string  `json:"set,omitempty"`
	IPC          float64 `json:"ipc,omitempty"`
	LLCMissRate  float64 `json:"llc_miss_rate,omitempty"`
	CyclesPerMop float64 `json:"cycles_per_mop,omitempty"`
	MissesPerMop float64 `json:"misses_per_mop,omitempty"`
	Cycles       uint64  `json:"cycles,omitempty"`
	Instructions uint64  `json:"instructions,omitempty"`
	LLCMisses    uint64  `json:"llc_misses,omitempty"`
	Note         string  `json:"note,omitempty"`
}

// runCounters renders the per-benchmark hardware-counter view of bench
// records: IPC, the LLC miss rate, and cycles/misses normalized per
// Mop (the benchmark's own unit of work: Mop/s x elapsed seconds), so
// figures stay comparable across classes and thread counts.
func runCounters(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("counters", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "machine-readable output")
	require := fs.Bool("require", false, "exit 1 unless at least one cell carries counters or an explicit unavailable note")
	if fs.Parse(args) != nil || fs.NArg() < 1 {
		usage(stderr)
		return 2
	}
	recs, ok := readRecords(fs.Args(), stderr)
	if !ok {
		return 2
	}
	attributed := false
	for _, rec := range recs {
		var rows []counterRow
		for _, c := range rec.Cells {
			row := counterRow{Benchmark: c.Benchmark, Class: c.Class, Threads: c.Threads, Note: c.CountersNote}
			if ctr := c.Counters; ctr != nil {
				attributed = true
				row.Set = ctr.Set
				row.IPC = ctr.IPC()
				row.LLCMissRate = ctr.LLCMissRate()
				row.Cycles = ctr.Cycles
				row.Instructions = ctr.Instructions
				row.LLCMisses = ctr.LLCMisses
				if mop := c.Mops * c.Elapsed; mop > 0 {
					row.CyclesPerMop = float64(ctr.Cycles) / mop
					row.MissesPerMop = float64(ctr.LLCMisses) / mop
				}
			} else if c.CountersNote != "" {
				attributed = true
			} else {
				continue // cell ran without counters requested; nothing to show
			}
			rows = append(rows, row)
		}
		if *jsonOut {
			writeJSON(stdout, struct {
				Stamp string       `json:"stamp"`
				Cells []counterRow `json:"cells"`
			}{rec.Stamp, rows})
			continue
		}
		fmt.Fprintf(stdout, "record %s (GOMAXPROCS=%d, CPUs=%d)\n", rec.Stamp, rec.Env.GoMaxProcs, rec.Env.NumCPU)
		tb := report.New("Hardware counters per cell (Mop = Mop/s x elapsed)",
			"Cell", "Set", "IPC", "MissRate", "Cyc/Mop", "Miss/Mop", "Cycles", "Instr")
		for _, row := range rows {
			cell := fmt.Sprintf("%s.%s t%d", row.Benchmark, row.Class, row.Threads)
			if row.Threads == 0 {
				cell = fmt.Sprintf("%s.%s serial", row.Benchmark, row.Class)
			}
			if row.Set == "" {
				tb.AddRow(cell, row.Note)
				continue
			}
			tb.AddRow(cell, row.Set,
				fmt.Sprintf("%.2f", row.IPC),
				fmt.Sprintf("%.4f", row.LLCMissRate),
				fmt.Sprintf("%.0f", row.CyclesPerMop),
				fmt.Sprintf("%.1f", row.MissesPerMop),
				fmt.Sprintf("%d", row.Cycles),
				fmt.Sprintf("%d", row.Instructions))
		}
		if len(rows) == 0 {
			tb.AddRow("(record carries no counter data; run npbsuite -instrument counters)")
		}
		fmt.Fprint(stdout, tb.String())
		fmt.Fprintln(stdout)
	}
	if *require && !attributed {
		fmt.Fprintln(stderr, "npbperf: counters -require: no cell carries counter data or an unavailable note (silent zeros)")
		return 1
	}
	return 0
}
