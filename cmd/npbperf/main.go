// Command npbperf analyses the bench records written by npbsuite
// -bench-json (schema npbgo/bench/v1): per-cell distribution
// statistics, noise-aware record-to-record comparison, and the paper's
// §5 scalability diagnostics.
//
//	npbperf stats    [-json] record.json...
//	npbperf compare  [-json] [-threshold 0.02] [-confidence 0.95] [-min-time 0.001] base.json head.json
//	npbperf scaling  [-json] [-imbalance 1.5] [-barrier-share 0.2] [-small-work 0.001] [-ipc-drop 0.15] [-miss-rise 0.25] [-fail-on list] record.json...
//	npbperf counters [-json] [-require] record.json...
//	npbperf hotspots [-json] [-top n] [-heap] [-min-attr pct] [-require] record.json...
//	npbperf profdiff [-json] [-heap] [-min-delta share] [-min-share share] base.json head.json
//
// stats prints median/min/IQR and a bootstrap confidence interval of
// the median for every cell of each record — run sweeps with
// npbsuite -repeats N so cells carry a real distribution.
//
// compare judges head against base cell by cell and exits 1 iff a
// statistically separated regression exists: the medians' confidence
// intervals must not overlap AND the slowdown must clear -threshold
// (so back-to-back runs of identical code stay green — the CI
// perf-gate depends on this). A cell that verified in base but failed
// in head also counts as a regression. Cells whose medians sit below
// -min-time are never judged: they are inside timer resolution, where
// the paper's own IS class-S numbers stopped being meaningful.
//
// scaling prints speedup, efficiency and the Karp–Flatt serial
// fraction per (benchmark, class) thread curve, plus rule-based
// anomaly flags joined from the obs counters in the record:
// load-imbalance (§5.2 CG), barrier-sync (§5 LU pipeline), small-work
// (§5 IS) and memory-bound (IPC falling while the LLC miss rate rises
// as threads grow — needs records written with npbsuite -instrument counters).
// -fail-on takes a comma-separated list of those anomaly names and
// turns any diagnosed occurrence into exit code 1, which is how CI
// asserts that `-schedule auto` keeps the CG load-imbalance flag clear.
//
// counters prints the per-benchmark hardware-counter view of each
// record: IPC, LLC miss rate, and cycles/instructions/misses per
// iteration-second of the cell. Cells whose counters were requested but
// unavailable print their "unavailable (<reason>)" note. -require exits
// 1 when no cell of any record carries counters or a note — the CI
// smoke's "never silent zeros" assertion.
//
// hotspots decodes the per-cell pprof profiles a sweep captured with
// npbsuite -instrument profile (paths recorded in each cell) into symbolized
// flat/cumulative hot-function tables — the decoder is this repo's own
// stdlib-only pprof reader, no google/pprof needed. Each cell's table
// is joined with its recorded imbalance and IPC, so one row answers
// both where the time went and why. -json emits npbgo/profile/v1
// records; -heap analyzes allocation (alloc_space) profiles; -min-attr
// exits 1 when a decoded CPU profile attributes less than the given
// percentage to symbolized npbgo/internal/... code (the CI floor);
// -require exits 1 when no cell carries a decodable profile. A profile
// that fails to decode (a truncated or damaged file) renders as an
// explicit note, never silently.
//
// profdiff judges head profiles against base per matching cell
// (benchmark, class, threads, schedule) under the compare conventions:
// a function flags only when its sample-share shift is statistically
// separated (binomial CIs at z=1.96) AND exceeds -min-delta, so two
// sweeps of identical code exit 0. Exit 1 iff a significant shift
// exists.
//
// All subcommands take -json for machine-readable output. Exit codes:
// 0 clean, 1 regression found (compare, scaling with -fail-on,
// hotspots with -min-attr/-require, profdiff with a shift), 2 usage or
// input error.
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
	case "stats":
		return runStats(args[1:], stdout, stderr)
	case "compare":
		return runCompare(args[1:], stdout, stderr)
	case "scaling":
		return runScaling(args[1:], stdout, stderr)
	case "counters":
		return runCounters(args[1:], stdout, stderr)
	case "hotspots":
		return runHotspots(args[1:], stdout, stderr)
	case "profdiff":
		return runProfdiff(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "npbperf: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `usage:
  npbperf stats   [-json] record.json...
  npbperf compare [-json] [-threshold rel] [-confidence c] [-min-time sec] base.json head.json
  npbperf scaling  [-json] [-imbalance r] [-barrier-share s] [-small-work sec] [-ipc-drop f] [-miss-rise f] [-fail-on list] record.json...
  npbperf counters [-json] [-require] record.json...
  npbperf hotspots [-json] [-top n] [-heap] [-min-attr pct] [-require] record.json...
  npbperf profdiff [-json] [-heap] [-min-delta share] [-min-share share] base.json head.json
`)
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

func runStats(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "machine-readable output")
	conf := fs.Float64("confidence", 0.95, "bootstrap CI confidence")
	if fs.Parse(args) != nil || fs.NArg() < 1 {
		usage(stderr)
		return 2
	}
	recs, ok := readRecords(fs.Args(), stderr)
	if !ok {
		return 2
	}
	opt := perfstat.CIOptions{Confidence: *conf}
	for _, rec := range recs {
		cells := perfstat.Stats(rec, opt)
		if *jsonOut {
			writeJSON(stdout, struct {
				Stamp string                 `json:"stamp"`
				Cells []perfstat.CellSummary `json:"cells"`
			}{rec.Stamp, cells})
			continue
		}
		fmt.Fprint(stdout, perfstat.StatsTable(rec.Stamp, cells))
		fmt.Fprintln(stdout)
	}
	return 0
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "machine-readable output")
	threshold := fs.Float64("threshold", 0.02, "relative slowdown a separated cell must exceed to flag")
	conf := fs.Float64("confidence", 0.95, "bootstrap CI confidence")
	minTime := fs.Float64("min-time", 0.001, "floor in seconds below which cells are not judged")
	if fs.Parse(args) != nil || fs.NArg() != 2 {
		usage(stderr)
		return 2
	}
	recs, ok := readRecords(fs.Args(), stderr)
	if !ok {
		return 2
	}
	if len(recs) != 2 {
		fmt.Fprintf(stderr, "npbperf: compare wants exactly one record per file, got %d records\n", len(recs))
		return 2
	}
	cmp := perfstat.Compare(recs[0], recs[1], perfstat.CompareOptions{
		CIOptions:   perfstat.CIOptions{Confidence: *conf},
		MinRelDelta: *threshold,
		MinTime:     *minTime,
	})
	if *jsonOut {
		writeJSON(stdout, cmp)
	} else {
		fmt.Fprint(stdout, cmp.Table())
		fmt.Fprintf(stdout, "\n%d regression(s), %d improvement(s) across %d cell(s)\n",
			cmp.Regressions, cmp.Improvements, len(cmp.Cells))
	}
	if cmp.Regressions > 0 {
		return 1
	}
	return 0
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
			fmt.Fprintf(stdout, "record %s (GOMAXPROCS=%d, CPUs=%d)\n", rec.Stamp, rec.GoMaxProcs, rec.NumCPU)
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
		fmt.Fprintf(stdout, "record %s (GOMAXPROCS=%d, CPUs=%d)\n", rec.Stamp, rec.GoMaxProcs, rec.NumCPU)
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
