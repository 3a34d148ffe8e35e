// The profile subcommand: hotspots reads the per-cell pprof files a
// sweep captured (npbsuite -instrument profile) into symbolized
// flat/cumulative hot-function tables, through `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"npbgo/internal/profile"
	"npbgo/internal/report"
)

// cellProf is one sweep cell joined with its profile table (or the
// reason the profile could not be read).
type cellProf struct {
	cell report.CellMetrics
	path string // resolved profile path ("" when the cell has none)
	tab  *profile.Table
	note string
}

// cellName is the row tag of a profiled cell: "CG.S t2", "IS.W
// serial", with "/schedule" appended when the sweep named one.
func cellName(pc report.ProfileCell) string {
	cell := fmt.Sprintf("t%d", pc.Threads)
	if pc.Threads == 0 {
		cell = "serial"
	}
	if pc.Schedule != "" {
		cell += "/" + pc.Schedule
	}
	return fmt.Sprintf("%s.%s %s", pc.Benchmark, pc.Class, cell)
}

// resolveProfile makes a record's profile path usable from here: paths
// are recorded as written by the sweep (usually relative to its working
// directory), so a path that does not resolve directly is retried
// relative to the record file's own directory — the layout `npbsuite
// -instrument profile -bench-json results/` leaves behind.
func resolveProfile(recPath, profPath string) string {
	if profPath == "" {
		return ""
	}
	if _, err := os.Stat(profPath); err == nil || filepath.IsAbs(profPath) {
		return profPath
	}
	return filepath.Join(filepath.Dir(recPath), profPath)
}

// cellProfiles reads the chosen profile of every cell of rec. A cell
// without a profile is skipped; a cell whose profile pprof cannot read
// (missing file, capture cut by a hard kill) is kept with its note —
// absence with a reason, never silently.
func cellProfiles(recPath string, rec report.BenchRecord, heap bool) []cellProf {
	var out []cellProf
	for _, c := range rec.Cells {
		path := c.CPUProfile
		if heap {
			path = c.HeapProfile
		}
		if path == "" {
			continue
		}
		cp := cellProf{cell: c, path: resolveProfile(recPath, path)}
		tab, err := profile.Hot(cp.path, heap)
		if err != nil {
			cp.note = err.Error()
			out = append(out, cp)
			continue
		}
		cp.tab = tab
		out = append(out, cp)
	}
	return out
}

// profileCell flattens one read cell into the npbgo/profile/v1 cell
// shape, joining the runtime diagnostics recorded next to the profile.
func profileCell(cp cellProf, top int) report.ProfileCell {
	pc := report.ProfileCell{
		Benchmark: cp.cell.Benchmark,
		Class:     cp.cell.Class,
		Threads:   cp.cell.Threads,
		Schedule:  cp.cell.Schedule,
		Profile:   cp.path,
		Imbalance: cp.cell.Imbalance,
		Note:      cp.note,
	}
	if t := cp.tab; t != nil {
		pc.Type = t.Type
		pc.Unit = t.Unit
		pc.Total = t.Total
		pc.AttributedPct = t.AttributedPct
		pc.Functions = t.Top(top)
	}
	return pc
}

// runHotspots renders the hot-function view of bench records written
// with profiling enabled.
func runHotspots(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hotspots", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "machine-readable output (schema npbgo/profile/v1)")
	top := fs.Int("top", 10, "functions per cell, by flat share")
	heap := fs.Bool("heap", false, "analyze the heap (alloc_space) profiles instead of CPU")
	minAttr := fs.Float64("min-attr", 0, "exit 1 when any decoded profile attributes less than this percentage to symbolized "+profile.KernelPrefix+" code")
	require := fs.Bool("require", false, "exit 1 unless at least one cell carries a decodable profile")
	if fs.Parse(args) != nil || fs.NArg() < 1 {
		usage(stderr)
		return 2
	}
	exit := 0
	decoded := false
	for _, path := range fs.Args() {
		// One file at a time: profile paths resolve against their own
		// record's directory.
		recs, ok := readRecords([]string{path}, stderr)
		if !ok {
			return 2
		}
		for _, rec := range recs {
			var cells []report.ProfileCell
			for _, cp := range cellProfiles(path, rec, *heap) {
				pc := profileCell(cp, *top)
				cells = append(cells, pc)
				if cp.tab != nil {
					decoded = true
					if *minAttr > 0 && !*heap && pc.AttributedPct < *minAttr {
						fmt.Fprintf(stderr, "npbperf: hotspots: %s attributes %.1f%% to %s code (floor %.1f%%)\n",
							cellName(pc), pc.AttributedPct, profile.KernelPrefix, *minAttr)
						exit = 1
					}
				}
			}
			if *jsonOut {
				report.WriteProfileJSON(stdout, report.ProfileRecord{
					Schema: report.ProfileSchema, Stamp: rec.Stamp, Cells: cells})
				continue
			}
			renderHotspots(stdout, rec, cells)
		}
	}
	if *require && !decoded {
		fmt.Fprintln(stderr, "npbperf: hotspots -require: no cell carries a decodable profile (run npbsuite -instrument profile)")
		return 1
	}
	return exit
}

// renderHotspots prints the human view: a per-cell summary joined with
// the cell's imbalance, then the top functions of every cell.
func renderHotspots(stdout io.Writer, rec report.BenchRecord, cells []report.ProfileCell) {
	fmt.Fprintf(stdout, "record %s (GOMAXPROCS=%d, CPUs=%d)\n", rec.Stamp, rec.Env.GoMaxProcs, rec.Env.NumCPU)
	sum := report.New("Profiles per cell (Attr% = samples touching "+profile.KernelPrefix+" code)",
		"Cell", "Type", "Total", "Attr%", "Imbal")
	for _, pc := range cells {
		if pc.Note != "" {
			sum.AddRow(cellName(pc), "undecodable: "+pc.Note)
			continue
		}
		tab := profile.Table{Unit: pc.Unit}
		imbal := "-"
		if pc.Imbalance > 0 {
			imbal = fmt.Sprintf("%.2f", pc.Imbalance)
		}
		sum.AddRow(cellName(pc), pc.Type, tab.FormatValue(pc.Total),
			fmt.Sprintf("%.1f", pc.AttributedPct), imbal)
	}
	if len(cells) == 0 {
		sum.AddRow("(record carries no profiles; run npbsuite -instrument profile)")
	}
	fmt.Fprint(stdout, sum.String())
	for _, pc := range cells {
		if pc.Note != "" {
			continue
		}
		tab := profile.Table{Unit: pc.Unit}
		tb := report.New("Hot functions: "+cellName(pc), "Flat", "Flat%", "Cum", "Cum%", "Function")
		for _, fn := range pc.Functions {
			tb.AddRow(tab.FormatValue(fn.Flat), fmt.Sprintf("%.1f", fn.FlatPct),
				tab.FormatValue(fn.Cum), fmt.Sprintf("%.1f", fn.CumPct), fn.Name)
		}
		fmt.Fprint(stdout, tb.String())
	}
	fmt.Fprintln(stdout)
}
